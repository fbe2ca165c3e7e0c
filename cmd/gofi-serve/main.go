// Command gofi-serve runs the gofi campaign service: a long-running HTTP
// server that accepts campaign specifications over JSON, shards each
// campaign by trial-index range across a pool of engine workers, and
// streams per-trial records plus live Wilson-interval aggregates to any
// number of clients over chunked JSONL.
//
// Campaign state is durable: the fold checkpoints to -dir as it
// advances, so a killed or restarted server resumes every interrupted
// campaign from exactly its checkpointed frontier — and the resumed
// results are byte-identical to an uninterrupted single-machine run.
// On SIGINT/SIGTERM the server pauses every campaign (each writes its
// checkpoint) before exiting.
//
// Usage:
//
//	gofi-serve -dir /var/lib/gofi -addr 127.0.0.1:8091
//	gofi-campaign -submit http://127.0.0.1:8091 -model resnet18 -trials 20000 -shards 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gofi/internal/obs"
	"gofi/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gofi-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gofi-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8091", "listen address")
	dir := fs.String("dir", "", "durable state directory for checkpoints and record logs (required)")
	slots := fs.Int("slots", 0, "concurrent shard engine legs across all campaigns; 0 = GOMAXPROCS")
	ckptEvery := fs.Int("checkpoint-every", 64, "checkpoint each campaign's fold every N folded trials; negative disables periodic checkpoints (pause and terminal checkpoints are always written)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("-dir is required: campaign checkpoints and record logs live there")
	}
	srv, err := serve.New(serve.Config{Dir: *dir, Slots: *slots, CheckpointEvery: *ckptEvery})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	if restored := srv.List(); len(restored) > 0 {
		fmt.Fprintf(out, "gofi-serve: restored %d campaign(s) from %s\n", len(restored), *dir)
	}
	fmt.Fprintf(out, "gofi-serve listening on http://%s (state %s)\n", ln.Addr(), *dir)

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: obs.ReadHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: pause every campaign (each writes its
	// checkpoint, and its streams settle), then drain the listener.
	fmt.Fprintln(out, "gofi-serve: shutting down, checkpointing campaigns")
	srv.Close()
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(shCtx)
}
