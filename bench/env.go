package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gofi/internal/tensor"
)

// processStart approximates process start (package initialisation runs a
// few milliseconds after exec).
var processStart = time.Now()

// envStamp says where and on what a run was made. Every record carries
// one, so two files are only compared knowing what differs between them.
type envStamp struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	CPUModel      string `json:"cpu_model"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GitRev        string `json:"git_rev"`
	GitDirty      bool   `json:"git_dirty"`
	TensorWorkers int    `json:"tensor_workers"`
	Kernels       string `json:"kernels"` // "avx2" or "scalar", as linked
}

// stampEnv gathers the stamp and enforces the load shape: one process
// with no more threads running Go code than the box has CPUs.
func stampEnv() (envStamp, error) {
	e := envStamp{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		TensorWorkers: tensor.Workers(),
		Kernels:       tensor.KernelBackend(),
	}
	e.GitRev, e.GitDirty = gitRev()
	if e.GOMAXPROCS > e.NProc {
		return e, fmt.Errorf("GOMAXPROCS %d exceeds nproc %d: the harness measures at most one runnable thread per CPU", e.GOMAXPROCS, e.NProc)
	}
	return e, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitRev reports HEAD and whether the tree differs from it. Outside a
// git checkout (the driver's copy is one) the revision is "unknown".
func gitRev() (rev string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(strings.TrimSpace(string(status))) > 0
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
