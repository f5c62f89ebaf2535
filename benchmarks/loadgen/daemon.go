package main

// Daemons under test. The end-to-end run drives ./cmd/sailor-serve as a
// subprocess; the traced run and the smoke tests assemble the same stack
// in-process from the public constructors, so shims can sit at the layer
// boundaries. Both satisfy daemon.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/persist"
	"repro/sailor"
)

// Daemon sizing, fixed by the load model: one search goroutine per request,
// two searches at once, everything else default.
const (
	daemonWorkers       = 1
	daemonMaxConcurrent = 2
)

type daemon interface {
	Addr() string
	// Pid names the process whose /proc entries hold the daemon's CPU time
	// and peak RSS.
	Pid() int
	// Kill stops the daemon the way kill -9 does — no drain, no final
	// snapshot — and returns once it is gone.
	Kill()
}

// launcher starts a daemon; dataDir is "" for an in-memory one.
type launcher func(dataDir string) (daemon, error)

// harness owns what a run leaves behind: daemon children and temp dirs.
// cleanup is safe to call from any exit path, more than once.
type harness struct {
	root     string // repository root
	build    string // root/.bench_build: binaries and temp dirs
	serveBin string

	mu    sync.Mutex
	procs []*procDaemon
	dirs  []string
	seq   int
}

// newHarness locates the repository root (the directory whose go.mod
// declares module repro) at or above the working directory.
func newHarness() (*harness, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if doc, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(doc), "module repro\n") {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("loadgen: no go.mod declaring module repro at or above the working directory")
		}
		dir = parent
	}
	h := &harness{root: dir, build: filepath.Join(dir, ".bench_build")}
	if err := os.MkdirAll(h.build, 0o755); err != nil {
		return nil, err
	}
	// A loadgen that was killed -9 could not remove its temp dirs; sweep
	// those whose owner is gone.
	stale, _ := filepath.Glob(filepath.Join(h.build, "tmp-*-*"))
	for _, d := range stale {
		var pid, seq int
		if n, _ := fmt.Sscanf(filepath.Base(d), "tmp-%d-%d", &pid, &seq); n == 2 && syscall.Kill(pid, 0) == syscall.ESRCH {
			os.RemoveAll(d)
		}
	}
	return h, nil
}

// buildServe compiles ./cmd/sailor-serve from the checkout's source.
func (h *harness) buildServe() error {
	h.serveBin = filepath.Join(h.build, "sailor-serve")
	cmd := exec.Command("go", "build", "-o", h.serveBin, "./cmd/sailor-serve")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("loadgen: build sailor-serve: %v\n%s", err, out)
	}
	return nil
}

// tempDir returns a fresh directory under the build dir, removed by cleanup.
func (h *harness) tempDir() (string, error) {
	h.mu.Lock()
	h.seq++
	dir := filepath.Join(h.build, fmt.Sprintf("tmp-%d-%d", os.Getpid(), h.seq))
	h.dirs = append(h.dirs, dir)
	h.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

func (h *harness) cleanup() {
	h.mu.Lock()
	procs, dirs := h.procs, h.dirs
	h.procs, h.dirs = nil, nil
	h.mu.Unlock()
	for _, p := range procs {
		p.Kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// procDaemon is one sailor-serve child process.
type procDaemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	once   sync.Once
}

// launchProc starts sailor-serve and returns once it printed its listen
// address. Call it from the main goroutine only: the children are tied to
// the OS thread that forked them (Pdeathsig), which main has locked.
func (h *harness) launchProc(dataDir string) (daemon, error) {
	args := []string{"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(daemonWorkers), "-max-concurrent", strconv.Itoa(daemonMaxConcurrent)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	d := &procDaemon{cmd: exec.Command(h.serveBin, args...)}
	d.cmd.Stderr = &d.stderr
	// A loadgen that is itself killed -9 must not leave daemons behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("loadgen: start sailor-serve: %w", err)
	}
	h.mu.Lock()
	h.procs = append(h.procs, d)
	h.mu.Unlock()

	lines := bufio.NewScanner(out)
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "listening on "); ok {
			d.addr, _, _ = strings.Cut(rest, " ")
			break
		}
	}
	if d.addr == "" {
		d.Kill()
		return nil, fmt.Errorf("loadgen: sailor-serve exited before listening: %s", d.stderr.String())
	}
	go io.Copy(io.Discard, out) // the rest of the banner; ends when the child does
	return d, nil
}

func (d *procDaemon) Addr() string { return d.addr }
func (d *procDaemon) Pid() int     { return d.cmd.Process.Pid }

func (d *procDaemon) Kill() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	})
}

// stackShims are the interposers the traced run puts at the layer
// boundaries of the in-process stack; zero values pass through.
type stackShims struct {
	wrapJournal  func(gen uint64, f persist.JournalFile) persist.JournalFile
	wrapRecorder func(*persist.Store) sailor.Recorder
}

// inproc is the sailor-serve stack assembled in this process the way
// cmd/sailor-serve wires it: persist.Open, Restore, Rotate, SetRecorder,
// NewServer on a loopback listener.
type inproc struct {
	srv   *sailor.Server
	svc   *sailor.Service
	store *persist.Store
	once  sync.Once
}

func launchInproc(dataDir string, shims stackShims) (*inproc, error) {
	d := &inproc{svc: sailor.NewService(sailor.ServiceConfig{Workers: daemonWorkers, MaxConcurrent: daemonMaxConcurrent})}
	if dataDir != "" {
		store, recovered, err := persist.Open(dataDir, persist.Config{Fsync: persist.FsyncAlways, WrapJournal: shims.wrapJournal})
		if err != nil {
			return nil, err
		}
		d.store = store
		if err := d.svc.Restore(recovered); err != nil {
			store.Close()
			return nil, err
		}
		if err := store.Rotate(d.svc.PersistState()); err != nil {
			store.Close()
			return nil, err
		}
		var rec sailor.Recorder = store
		if shims.wrapRecorder != nil {
			rec = shims.wrapRecorder(store)
		}
		d.svc.SetRecorder(rec)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if d.store != nil {
			d.store.Close()
		}
		return nil, err
	}
	d.srv = sailor.NewServer(lis, d.svc)
	go d.srv.Serve()
	return d, nil
}

func (d *inproc) Addr() string { return d.srv.Addr().String() }
func (d *inproc) Pid() int     { return os.Getpid() }

// Kill leaves the data dir in the shape kill -9 does: every appended record
// is in the journal, and no final snapshot is rotated.
func (d *inproc) Kill() {
	d.once.Do(func() {
		d.srv.Close()
		d.svc.Quiesce()
		if d.store != nil {
			d.store.Close()
		}
	})
}

// procUsage reads a process's consumed CPU time (user + system) from
// /proc/<pid>/stat and its peak resident set (VmHWM) from
// /proc/<pid>/status.
func procUsage(pid int) (cpu time.Duration, peakRSSMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks.
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, 0, fmt.Errorf("loadgen: short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("loadgen: bad cpu fields in /proc/%d/stat", pid)
	}
	const clockTick = time.Second / 100 // USER_HZ, 100 on every Linux ABI
	cpu = time.Duration(utime+stime) * clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("loadgen: bad VmHWM in /proc/%d/status", pid)
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("loadgen: no VmHWM in /proc/%d/status", pid)
}
