package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gofi/internal/campaign"
	"gofi/internal/campaign/stats"
	"gofi/internal/experiments"
	"gofi/internal/obs"
	"gofi/internal/serialize"
)

// Campaign is one submitted campaign: the shard coordinator, its durable
// state (checkpoint + record log), and the fan-out to stream clients.
//
// The coordinator owns the campaign's single fold. Shards execute
// disjoint trial-index ranges concurrently and report records over one
// channel; the coordinator buffers out-of-order arrivals and advances a
// contiguous frontier, folding each record — in strict global index
// order — into the aggregate, the stopping watcher and the record log.
// The fold therefore performs exactly the float additions a
// single-machine run performs, which is the whole byte-identity
// argument; shard count, worker count and schedule only change when
// records arrive, never what is folded or in what order.
type Campaign struct {
	ID string

	srv *Server

	mu         sync.Mutex
	cond       *sync.Cond // broadcast on every fold advance and state change
	spec       Spec
	state      string
	errMsg     string
	env        *experiments.CampaignEnv
	agg        campaign.Aggregate
	watcher    *stats.Sequential // nil without a stop rule
	next       int               // fold frontier: trials [0, next) are folded
	stopAt     int               // global stop index, -1 until the rule fires
	cancel     context.CancelFunc
	runDone    chan struct{} // closed when the run goroutine settles
	wantCancel bool          // Cancel (vs Pause) requested the interrupt
	reg        *obs.Registry // per-campaign engine metrics
	logCount   int           // records currently in the log file
}

func newCampaign(srv *Server, id string, sp Spec) *Campaign {
	c := &Campaign{
		ID:     id,
		srv:    srv,
		spec:   sp,
		state:  StatePending,
		stopAt: -1,
		reg:    obs.NewRegistry(),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// ckptPath and logPath are the campaign's two durable artifacts: the
// atomic checkpoint and the append-only index-ordered record log.
func (c *Campaign) ckptPath() string { return filepath.Join(c.srv.cfg.Dir, c.ID+".ckpt") }
func (c *Campaign) logPath() string  { return filepath.Join(c.srv.cfg.Dir, c.ID+".log.jsonl") }

// Status renders the campaign's wire status.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:    c.ID,
		State: c.state,
		Spec:  c.spec,
		Agg:   viewOf(c.agg, c.next, c.stopAt),
		Err:   c.errMsg,
	}
	if c.env != nil {
		st.CleanAcc = c.env.CleanAcc
		st.Eligible = len(c.env.Eligible)
	}
	return st
}

// Metrics returns the campaign's private engine-metrics registry.
func (c *Campaign) Metrics() *obs.Registry { return c.reg }

// setState transitions under the lock and wakes streamers.
func (c *Campaign) setState(state string) {
	c.mu.Lock()
	c.state = state
	c.cond.Broadcast()
	c.mu.Unlock()
}

// start launches the campaign's run goroutine. Callers hold no locks.
func (c *Campaign) start(parent context.Context) {
	ctx, cancel := context.WithCancel(parent)
	done := make(chan struct{})
	c.mu.Lock()
	c.cancel = cancel
	c.runDone = done
	c.mu.Unlock()
	go func() {
		defer close(done)
		c.run(ctx)
	}()
}

// checkpoint persists the fold state at the current frontier. Callers
// hold c.mu.
func (c *Campaign) checkpointLocked() error {
	specRaw, err := json.Marshal(c.spec)
	if err != nil {
		return err
	}
	ck := serialize.CampaignCheckpoint{
		ID:        c.ID,
		State:     c.state,
		Spec:      specRaw,
		NextTrial: c.next,
		StopTrial: c.stopAt,
		Agg:       serialize.NewAggregateState(c.agg),
	}
	if c.watcher != nil {
		st := c.watcher.State()
		ck.Watcher = &st
	}
	if err := serialize.SaveCampaignCheckpoint(c.ckptPath(), ck); err != nil {
		return err
	}
	c.srv.reg.Counter(MetricCheckpointWrites).Inc()
	return nil
}

// loadCheckpoint restores a campaign from its durable artifacts: fold
// state from the checkpoint, and the record log truncated to the
// checkpoint's frontier (the log is written ahead of the checkpoint, so
// after a crash it may hold records the checkpoint does not cover; the
// resumed run recomputes them bit-identically).
func loadCheckpoint(srv *Server, path string) (*Campaign, error) {
	ck, err := serialize.LoadCampaignCheckpoint(path)
	if err != nil {
		return nil, err
	}
	var sp Spec
	if err := json.Unmarshal(ck.Spec, &sp); err != nil {
		return nil, fmt.Errorf("serve: checkpoint %s: bad spec: %v", ck.ID, err)
	}
	sp = sp.Canon()
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("serve: checkpoint %s: %w", ck.ID, err)
	}
	c := newCampaign(srv, ck.ID, sp)
	c.next = ck.NextTrial
	c.stopAt = ck.StopTrial
	c.agg = ck.Agg.Aggregate()
	if ck.Watcher != nil {
		c.watcher = stats.NewSequentialFromState(*ck.Watcher)
	}
	if terminalState(ck.State) {
		c.state = ck.State
	} else {
		// The server died (or paused) mid-run; the campaign resumes on
		// request from exactly the checkpointed frontier.
		c.state = StatePaused
	}
	if err := c.truncateLog(); err != nil {
		return nil, err
	}
	return c, nil
}

// truncateLog cuts the record log back to the checkpoint frontier.
func (c *Campaign) truncateLog() error {
	f, err := os.Open(c.logPath())
	if err != nil {
		if os.IsNotExist(err) {
			if c.next > 0 && c.state != StateDone {
				return fmt.Errorf("serve: campaign %s: checkpoint at trial %d but no record log", c.ID, c.next)
			}
			c.logCount = 0
			return nil
		}
		return err
	}
	defer f.Close()
	var off int64
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for lines < c.next && sc.Scan() {
		off += int64(len(sc.Bytes())) + 1
		lines++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines < c.next {
		return fmt.Errorf("serve: campaign %s: record log holds %d trials, checkpoint expects %d", c.ID, lines, c.next)
	}
	c.logCount = lines
	return os.Truncate(c.logPath(), off)
}

// maxLegTrials bounds one engine leg. campaign.Run allocates its
// per-trial state (about 120 B a trial by its element types) for the
// whole leg, so each shard range runs as consecutive legs of at most
// this many trials, holding its slot across them. A record is a
// function of its global trial index alone, so the legs change no
// record and no fold.
var maxLegTrials = 1 << 16

// run executes (or resumes) the campaign to completion, pause or
// failure. It is the only goroutine that mutates the fold state while
// the campaign runs.
func (c *Campaign) run(ctx context.Context) {
	c.mu.Lock()
	resumeAt := c.next
	sp := c.spec
	alreadyStopped := c.stopAt >= 0
	c.mu.Unlock()

	if alreadyStopped || resumeAt >= sp.Trials {
		// Nothing left to execute (resumed past the end or past a fired
		// stop rule); settle the terminal state and checkpoint it.
		c.finish(nil)
		return
	}

	// Phase 1: fixture. Training is the expensive part and is shared
	// across campaigns with the same fixture key via the server cache.
	c.setState(StateTraining)
	env, err := c.srv.envFor(ctx, sp)
	if err != nil {
		c.fail(err)
		return
	}
	c.mu.Lock()
	c.env = env
	// The stopping rule comes from the campaign's own spec, not the
	// environment: fixtures are cached across campaigns that differ only
	// in run shape (trials, sharding, stopping), so env.Cfg's stop fields
	// belong to whichever campaign trained the fixture first.
	if rule := sp.Stop(); c.watcher == nil && rule.On() {
		c.watcher = stats.NewSequential(rule)
	}
	c.mu.Unlock()

	// Phase 2: open the record log for append and launch the shard legs.
	logf, err := os.OpenFile(c.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		c.fail(err)
		return
	}
	defer logf.Close()
	logw := bufio.NewWriter(logf)
	logEnc := json.NewEncoder(logw)

	c.setState(StateRunning)
	shardCtx, stopShards := context.WithCancel(ctx)
	defer stopShards()

	ranges := campaign.SplitTrials(resumeAt, sp.Trials, sp.Shards)
	records := make(chan campaign.TrialRecord, 4*sp.Workers*len(ranges))
	shardErrs := make(chan error, len(ranges))
	var wg sync.WaitGroup
	for _, r := range ranges {
		wg.Add(1)
		go func(r campaign.Range) {
			defer wg.Done()
			// The slot semaphore bounds how many engine legs run at once
			// across ALL campaigns on this server.
			select {
			case c.srv.slots <- struct{}{}:
				defer func() { <-c.srv.slots }()
			case <-shardCtx.Done():
				shardErrs <- shardCtx.Err()
				return
			}
			c.srv.reg.Counter(MetricShardsLaunched).Inc()
			sink := campaign.SinkFunc(func(rec campaign.TrialRecord) error {
				select {
				case records <- rec:
					return nil
				case <-shardCtx.Done():
					return shardCtx.Err()
				}
			})
			var err error
			for lo := r.Lo; lo < r.Hi && err == nil; lo += maxLegTrials {
				_, err = env.Run(shardCtx, experiments.ShardRun{
					Offset:  lo,
					Trials:  min(r.Hi-lo, maxLegTrials),
					Workers: sp.Workers,
					Metrics: c.reg,
					Sinks:   []campaign.TrialSink{sink},
				})
			}
			shardErrs <- err
		}(r)
	}
	go func() { wg.Wait(); close(records) }()

	// Phase 3: the fold. Buffer out-of-order completions, advance the
	// contiguous frontier, append each folded record to the log and feed
	// the stopping watcher — all in strict global index order.
	ckEvery := c.srv.cfg.CheckpointEvery
	buffered := make(map[int]campaign.TrialRecord, 4*sp.Workers)
	folded := 0
	for rec := range records {
		c.mu.Lock()
		if c.stopAt >= 0 {
			c.mu.Unlock()
			continue // rule fired; drain computed-but-discarded trials
		}
		// Worker attribution depends on work-stealing timing; the log and
		// stream are part of the byte-identity contract, so zero it.
		rec.Worker = 0
		buffered[rec.Trial] = rec
		for {
			r, ok := buffered[c.next]
			if !ok {
				break
			}
			delete(buffered, c.next)
			if err := logEnc.Encode(r); err != nil {
				c.mu.Unlock()
				c.fail(err)
				return
			}
			c.logCount++
			c.agg.AddRecord(r)
			c.srv.reg.Counter(MetricRecordsFolded).Inc()
			if c.watcher != nil {
				c.watcher.Observe(c.next, r.Err == "" && r.Outcome.Top1Changed, r.Err != "")
				if c.watcher.ShouldStop() {
					c.stopAt = c.next
					c.next++
					stopShards()
					break
				}
			}
			c.next++
			folded++
			if ckEvery > 0 && folded%ckEvery == 0 {
				if err := logw.Flush(); err != nil {
					c.mu.Unlock()
					c.fail(err)
					return
				}
				if err := c.checkpointLocked(); err != nil {
					c.mu.Unlock()
					c.fail(err)
					return
				}
			}
		}
		// Streamers read the log up to c.next the moment they wake, so the
		// lines behind the new frontier must be in the file before it is
		// published.
		if err := logw.Flush(); err != nil {
			c.mu.Unlock()
			c.fail(err)
			return
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}

	var firstErr error
	for range ranges {
		if err := <-shardErrs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := logw.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	c.mu.Lock()
	stopped := c.stopAt >= 0
	c.mu.Unlock()
	if stopped {
		// The stop rule cancelling its own shards is not a failure.
		firstErr = nil
	}
	c.finish(firstErr)
}

// finish settles the campaign's terminal (or paused) state and writes
// the final checkpoint.
func (c *Campaign) finish(runErr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case runErr == nil:
		c.state = StateDone
		c.srv.reg.Counter(MetricCampaignsDone).Inc()
	case errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
		// Interrupted, not broken: pause or cancelled, as requested.
		if c.wantCancel {
			c.state = StateCancelled
			c.srv.reg.Counter(MetricCampaignsCancelled).Inc()
		} else {
			c.state = StatePaused
		}
	default:
		c.state = StateFailed
		c.errMsg = runErr.Error()
		c.srv.reg.Counter(MetricCampaignsFailed).Inc()
	}
	if err := c.checkpointLocked(); err != nil && c.state != StateFailed {
		c.state = StateFailed
		c.errMsg = err.Error()
	}
	c.cond.Broadcast()
}

// Pause checkpoints the campaign and halts its shards; a paused campaign
// resumes from exactly its frontier. No-op in any non-running state.
func (c *Campaign) Pause() Status {
	c.mu.Lock()
	cancel, done := c.cancel, c.runDone
	active := c.state == StateRunning || c.state == StateTraining || c.state == StatePending
	c.mu.Unlock()
	if active && cancel != nil {
		cancel()
		<-done
	}
	return c.Status()
}

// Cancel terminally stops the campaign (checkpoint still written, but
// the state is not resumable).
func (c *Campaign) Cancel() Status {
	c.mu.Lock()
	c.wantCancel = true
	cancel, done := c.cancel, c.runDone
	active := c.state == StateRunning || c.state == StateTraining || c.state == StatePending
	if !active {
		// Already settled: a terminal state stays; paused flips to
		// cancelled (it will never run again).
		if c.state == StatePaused {
			c.state = StateCancelled
			c.checkpointLocked()
			c.cond.Broadcast()
		}
		c.mu.Unlock()
		return c.Status()
	}
	c.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	return c.Status()
}

// Resume relaunches a paused campaign from its checkpointed frontier.
func (c *Campaign) Resume(parent context.Context) (Status, error) {
	c.mu.Lock()
	if c.state != StatePaused {
		state := c.state
		c.mu.Unlock()
		return c.Status(), fmt.Errorf("serve: campaign %s is %s, not paused", c.ID, state)
	}
	c.state = StatePending
	c.mu.Unlock()
	c.start(parent)
	return c.Status(), nil
}

// fail settles a non-context error (fixture build, log I/O).
func (c *Campaign) fail(err error) { c.finish(err) }
