package main

// The end-to-end run: set the daemon up (several times, for a steady
// setup_s), drive the timed window through sailor.Client connections, read
// the daemon's CPU and memory from /proc, kill it, time how long a restart
// takes to have the state back, and check the plans' accuracy off the clock.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/sailor"
)

// runConfig is one run of one workload against one kind of daemon.
type runConfig struct {
	wl     workload
	seed   int64
	n      int // timed op count
	launch launcher
	// connect opens one API handle onto a launched daemon; traffic through
	// it adds to bytes. The default dials a sailor.Client over TCP.
	connect func(d daemon, bytes *atomic.Int64) (sailor.API, io.Closer, error)
	h       *harness

	// setupReps and recoveryReps are how many times the run sets up and
	// recovers; setup_s and recovery_s are the medians. recoveryReps 0
	// skips the kill/restart phase.
	setupReps    int
	recoveryReps int

	// windowCap, when set, cuts the timed window short: a stalled host must
	// not carry a run past the driver's per-run time limit. A cut window is
	// reported as measured, with the op count it reached.
	windowCap time.Duration

	// The traced run drives one client at a time (so a span's owner is
	// never ambiguous), records spans, and keeps a record of every op.
	sequential bool
	tr         *tracer
	keep       bool
}

// runOutput is what a run measured. metrics holds every end-to-end metric
// plus the per-layer counters that come free with an untraced run.
type runOutput struct {
	plans   []clientPlan
	tally   *tally
	window  time.Duration
	metrics map[string]float64
	digest  string
	p99     time.Duration
	peakRSS float64 // VmHWM, MB
	// windowSpan is the index of the first span of the timed window.
	windowSpan int
	// dataDir is the (killed) daemon's data dir, "" for in-memory.
	dataDir string
	genTime time.Duration
}

// session is one set-up daemon with its connected clients.
type session struct {
	d       daemon
	dir     string
	ctl     sailor.API // the run's own handle: SetFleet, Stats, FleetStats
	conns   []io.Closer
	clients []*client
	bytes   atomic.Int64
	// warmup holds the warm-up's op records when the run keeps records.
	warmup []opRecord
}

func (s *session) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.d != nil {
		s.d.Kill()
	}
}

// dialTCP is the default runConfig.connect.
func dialTCP(d daemon, bytes *atomic.Int64) (sailor.API, io.Closer, error) {
	c, err := dialCounting(d.Addr(), bytes)
	return c, c, err
}

// setUp starts a daemon, opens every job and plays the warm-up. The
// returned duration is setup_s: daemon exec to warm-up done.
func (rc *runConfig) setUp(plans []clientPlan) (*session, time.Duration, error) {
	s := &session{}
	start := time.Now()
	if rc.wl.durable {
		dir, err := rc.h.tempDir()
		if err != nil {
			return nil, 0, err
		}
		s.dir = dir
	}
	var err error
	if s.d, err = rc.launch(s.dir); err != nil {
		return nil, 0, err
	}
	var ctlBytes atomic.Int64 // the run's own traffic is not the workload's
	ctl, closer, err := rc.connect(s.d, &ctlBytes)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	s.ctl, s.conns = ctl, append(s.conns, closer)
	if rc.wl.fleetCap > 0 {
		if err := s.ctl.SetFleet(sailor.NewPool(), rc.wl.fleetCap); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	for _, p := range plans {
		api, closer, err := rc.connect(s.d, &s.bytes)
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.conns = append(s.conns, closer)
		cl := newClient(api, p, rc.wl)
		cl.tr, cl.keep = rc.tr, rc.keep
		s.clients = append(s.clients, cl)
		if err := cl.openJobs(); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("open jobs: %w", err)
		}
	}
	warm := newTally()
	rc.drive(s.clients, warm, false)
	if warm.failed > 0 {
		s.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d ops failed: %s", warm.failed, warm.attempted, strings.Join(warm.failures, "; "))
	}
	s.warmup = warm.records
	return s, time.Since(start), nil
}

// drive runs every client's warm-up (timed false) or timed ops into t and
// returns how long the foreground clients took. Foreground clients run
// concurrently, background clients beside them until the foreground is
// done; a sequential run takes one client at a time instead and gives each
// background client the op count its think time would have allowed.
func (rc *runConfig) drive(clients []*client, t *tally, timed bool) time.Duration {
	tallies := make([]*tally, len(clients))
	for i := range tallies {
		tallies[i] = newTally()
	}
	opsOf := func(c *client) []op {
		if timed || c.plan.background {
			return c.plan.ops
		}
		return c.plan.warm
	}
	start := time.Now()
	var window time.Duration
	if rc.sequential {
		for i, c := range clients {
			if !c.plan.background {
				c.run(opsOf(c), tallies[i], timed, nil)
			}
		}
		window = time.Since(start)
		for i, c := range clients {
			if c.plan.background && timed {
				count := int(time.Duration(rc.n) * time.Second / time.Duration(rc.wl.opsPerSecond) / c.plan.think)
				for k := 0; k < max(count, 1); k++ {
					c.do(c.plan.ops[k%len(c.plan.ops)], tallies[i], timed)
				}
			}
		}
	} else {
		stop, capped := make(chan struct{}), make(chan struct{})
		if timed && rc.windowCap > 0 {
			timer := time.AfterFunc(rc.windowCap, func() { close(capped) })
			defer timer.Stop()
		}
		var fg, bg sync.WaitGroup
		for i, c := range clients {
			if c.plan.background {
				bg.Add(1)
				go func() { defer bg.Done(); c.run(opsOf(c), tallies[i], timed, stop) }()
			} else {
				fg.Add(1)
				go func() { defer fg.Done(); c.run(opsOf(c), tallies[i], timed, capped) }()
			}
		}
		fg.Wait()
		window = time.Since(start)
		close(stop)
		bg.Wait()
	}
	for _, ct := range tallies {
		t.merge(ct)
	}
	return window
}

// run executes the whole end-to-end sequence of one workload.
func (rc *runConfig) run() (*runOutput, error) {
	genStart := time.Now()
	plans := rc.wl.build(rc.seed, rc.n)
	out := &runOutput{plans: plans, tally: newTally(), metrics: map[string]float64{}, genTime: time.Since(genStart)}

	// Set-up, several times over; the last one serves the timed window.
	var s *session
	var setups []float64
	for rep := 0; rep < rc.setupReps; rep++ {
		if s != nil {
			s.close()
		}
		var took time.Duration
		var err error
		if s, took, err = rc.setUp(plans); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", rc.wl.name, err)
		}
		setups = append(setups, took.Seconds())
	}
	defer s.close()
	out.dataDir = s.dir

	// The timed window.
	stats0, err := s.ctl.Stats()
	if err != nil {
		return nil, err
	}
	cpu0, _, err := procUsage(s.d.Pid())
	if err != nil {
		return nil, err
	}
	bytes0, journal0 := s.bytes.Load(), journalSize(s.dir)
	if rc.tr != nil {
		out.windowSpan = len(rc.tr.spans)
	}
	t := out.tally
	t.records = s.warmup
	rss := sampleRSS(s.d.Pid())
	out.window = rc.drive(s.clients, t, true)
	rssP95 := rss.p95()
	cpu1, hwm, err := procUsage(s.d.Pid())
	if err != nil {
		return nil, err
	}
	stats1, err := s.ctl.Stats()
	if err != nil {
		return nil, err
	}
	moved := s.bytes.Load() - bytes0
	records, journalBytes, err := journalGrowth(s.dir, journal0)
	if err != nil {
		return nil, err
	}

	// What the daemon's own counters say about the window.
	if n := stats1.Overloaded - stats0.Overloaded; n > 0 {
		t.fail("%d requests shed as overloaded", n)
	}
	if n := stats1.Degraded - stats0.Degraded; n > 0 {
		t.fail("%d requests degraded to the incumbent", n)
	}
	if n := stats1.Errors - stats0.Errors; n > 0 {
		t.fail("daemon counted %d failed requests", n)
	}
	if stats1.JournalError != "" {
		t.fail("journal_error: %s", stats1.JournalError)
	}

	ops := float64(len(t.lat))
	if ops == 0 {
		return nil, fmt.Errorf("%s: no foreground op completed", rc.wl.name)
	}
	sorted := sortedCopy(t.lat)
	out.p99 = percentile(sorted, 99)
	out.digest = fmt.Sprintf("%x", t.digest.Sum(nil))
	m := out.metrics
	m["setup_s"] = median(setups)
	m["op_p50_ms"] = ms(percentile(sorted, 50))
	m["op_p95_ms"] = ms(percentile(sorted, 95))
	m["ops_per_s"] = ops / out.window.Seconds()
	m["cpu_ms_per_op"] = ms(cpu1-cpu0) / ops
	m["rss_p95_mb"] = rssP95
	out.peakRSS = hwm
	m["plan_quality"] = math.Exp(ratio(t.sumLogTput, float64(t.plans)))

	requests := float64(stats1.Requests - stats0.Requests)
	hits, misses := float64(stats1.SpecHits-stats0.SpecHits), float64(stats1.SpecMisses-stats0.SpecMisses)
	m["rpc.bytes_per_op"] = float64(moved) / ops
	m["service.spec_lookups"] = hits + misses
	m["service.spec_hit_share"] = ratio(hits, hits+misses)
	m["service.spec_waste"] = ratio(float64(stats1.SpecPrecomputed-stats0.SpecPrecomputed), hits)
	m["service.shed_share"] = ratio(float64(stats1.Overloaded-stats0.Overloaded), requests)
	m["service.degraded_share"] = ratio(float64(stats1.Degraded-stats0.Degraded), requests)
	m["service.system_cache_hit_share"] = ratio(float64(stats1.SystemCacheHits), float64(stats1.SystemCacheHits+stats1.SystemCacheMisses))
	m["planner.explored_per_op"] = float64(t.explored) / ops
	m["planner.cache_hits_per_op"] = float64(t.cacheHits) / ops
	var latSum time.Duration
	for _, l := range t.lat {
		latSum += l
	}
	m["planner.search_share"] = ratio(float64(t.searchOn), float64(latSum))
	m["fleet.broken_per_event"] = ratio(float64(t.broken), float64(t.events))
	m["fleet.wait_share"] = ratio(float64(t.waitSteps), float64(t.rebalSteps))
	m["fleet.stats_p50_ms"] = ms(percentile(sortedCopy(t.pollLat), 50))
	m["persist.records_per_op"] = float64(records) / ops
	m["persist.journal_bytes_per_op"] = float64(journalBytes) / ops

	if rc.recoveryReps > 0 {
		rec, err := rc.recover(s, plans, t)
		if err != nil {
			return nil, fmt.Errorf("%s: recovery: %w", rc.wl.name, err)
		}
		m["recovery_s"] = rec
	}

	m["ok_share"] = 1 - ratio(float64(t.failed), float64(t.attempted))
	return out, nil
}

// recover kills the daemon and times recoveryReps restarts, each until the
// state a job controller relies on is back. A durable daemon must come up
// holding the pre-kill ledger version, lease table and open jobs. An
// in-memory one has lost everything, so its clients re-open their jobs and
// plan each once, cold: the restart is over when every job has a plan again.
// It returns the median, in seconds.
func (rc *runConfig) recover(s *session, plans []clientPlan, t *tally) (float64, error) {
	var pre sailor.FleetStats
	if rc.wl.durable {
		var err error
		if pre, err = s.ctl.FleetStats(); err != nil {
			return 0, err
		}
	}
	s.close()

	var took []float64
	for rep := 0; rep < rc.recoveryReps; rep++ {
		// Each durable restart replays its own copy of the killed daemon's
		// dir: a restart rotates a fresh snapshot, and the next one would
		// find nothing left to replay.
		dir := ""
		if rc.wl.durable {
			var err error
			if dir, err = rc.h.tempDir(); err != nil {
				return 0, err
			}
			if err := copyDir(s.dir, dir); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		d, err := rc.launch(dir)
		if err != nil {
			return 0, err
		}
		c, err := sailor.Dial(d.Addr())
		if err != nil {
			d.Kill()
			return 0, err
		}
		if rc.wl.durable {
			err = checkRecovered(c, plans, pre, t)
		} else {
			err = rebuildState(c, plans, rc.wl, t)
		}
		took = append(took, time.Since(start).Seconds())
		c.Close()
		d.Kill()
		if err != nil {
			return 0, err
		}
	}
	return median(took), nil
}

// checkRecovered compares a restarted durable daemon's state with the
// pre-kill one, recording any difference as a failure.
func checkRecovered(c *sailor.Client, plans []clientPlan, pre sailor.FleetStats, t *tally) error {
	fs, err := c.FleetStats()
	if err != nil {
		return err
	}
	if fs.Version != pre.Version {
		t.fail("recovered ledger version %d, want %d", fs.Version, pre.Version)
	}
	got, _ := json.Marshal(fs.Leases)
	want, _ := json.Marshal(pre.Leases)
	if string(got) != string(want) {
		t.fail("recovered lease table differs from the pre-kill one")
	}
	// The open-job set: every pre-kill job still holds its name, and no
	// other job does.
	jobs := 0
	for _, p := range plans {
		for _, j := range p.jobs {
			jobs++
			if err := c.OpenJob(j.name, benchModel(), j.gpus, j.priority); err == nil || !strings.Contains(err.Error(), "already open") {
				t.fail("recovered daemon does not hold job %q (re-open: %v)", j.name, err)
			}
		}
	}
	st, err := c.Stats()
	if err != nil {
		return err
	}
	if st.JobsOpen != jobs {
		t.fail("recovered daemon holds %d open jobs, want %d", st.JobsOpen, jobs)
	}
	if st.JournalError != "" {
		t.fail("journal_error after recovery: %s", st.JournalError)
	}
	return nil
}

// rebuildState is what clients of an in-memory daemon do after it restarts
// empty: re-open every job and plan it once. The pool is the same for every
// job of a shape and every seed, so recovery_s times the restart and not the
// draw of pools.
func rebuildState(c *sailor.Client, plans []clientPlan, wl workload, t *tally) error {
	for _, p := range plans {
		cl := newClient(c, p, wl)
		if err := cl.openJobs(); err != nil {
			return err
		}
		for j, job := range p.jobs {
			pool := sailor.NewPool().Set(zoneA100, sailor.A100, 16)
			if len(job.gpus) > 1 {
				pool.Set(zoneV100, sailor.V100, 16)
			}
			cl.do(op{kind: opPlan, job: j, pool: pool, obj: sailor.MaxThroughput}, t, false)
		}
	}
	return nil
}

// checkAccuracy adds sim_err_pct and groundtruth.measure_us, off the clock:
// how far the simulator's iteration time is from the ground truth's over the
// distinct plans the daemon returned, and what one measurement costs.
func (out *runOutput) checkAccuracy() error {
	pct, measure, err := accuracy(out.tally.distinct)
	if err != nil {
		return err
	}
	out.metrics["sim_err_pct"] = pct
	out.metrics["groundtruth.measure_us"] = us(measure)
	return nil
}

// accuracy is the mean relative gap between the simulator's and the ground
// truth's iteration time over plans, in percent, and the mean cost of one
// ground-truth measurement.
func accuracy(plans map[string]distinctPlan) (pct float64, measure time.Duration, err error) {
	keys := make([]string, 0, len(plans))
	for k := range plans {
		keys = append(keys, k)
	}
	sort.Strings(keys) // a fixed summation order keeps the mean bit-identical
	systems := map[string]*sailor.System{}
	var sum float64
	var spent time.Duration
	for _, k := range keys {
		p := plans[k]
		sk := fmt.Sprint(p.gpus)
		sys, ok := systems[sk]
		if !ok {
			if sys, err = sailor.New(benchModel(), p.gpus, sailor.WithSeed(1)); err != nil {
				return 0, 0, err
			}
			systems[sk] = sys
		}
		est, err := sys.Simulate(p.plan)
		if err != nil {
			return 0, 0, fmt.Errorf("simulate returned plan: %w", err)
		}
		start := time.Now()
		real, err := sys.Measure(p.plan)
		spent += time.Since(start)
		if err != nil {
			return 0, 0, fmt.Errorf("measure returned plan: %w", err)
		}
		sum += math.Abs(est.IterTime-real.IterTime) / real.IterTime
	}
	if len(keys) == 0 {
		return 0, 0, fmt.Errorf("no plan was returned to check")
	}
	return 100 * sum / float64(len(keys)), spent / time.Duration(len(keys)), nil
}

// rssSampler reads a process's resident set every 20 ms until p95 is asked
// for. The 95th percentile of the samples is the gated memory metric: the
// one highest sample (and VmHWM, which is the same thing) is the height of a
// single coincidence of two searches' garbage, and on a small heap it does
// not repeat within a tenth from run to run.
type rssSampler struct {
	stop    chan struct{}
	samples chan []float64
}

func sampleRSS(pid int) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), samples: make(chan []float64, 1)}
	pageMB := float64(os.Getpagesize()) / (1 << 20)
	go func() {
		var samples []float64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				r.samples <- samples
				return
			case <-tick.C:
				// statm: total program size, then resident set, in pages.
				if doc, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid)); err == nil {
					var size, resident float64
					if n, _ := fmt.Sscan(string(doc), &size, &resident); n == 2 {
						samples = append(samples, resident*pageMB)
					}
				}
			}
		}
	}()
	return r
}

// p95 stops the sampler and returns the nearest-rank 95th percentile, in MB.
func (r *rssSampler) p95() float64 {
	close(r.stop)
	samples := <-r.samples
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[int(math.Ceil(0.95*float64(len(samples))))-1]
}

// journalSize is the size of the data dir's live journal, 0 without one.
func journalSize(dir string) int64 {
	if path := journalPath(dir); path != "" {
		if fi, err := os.Stat(path); err == nil {
			return fi.Size()
		}
	}
	return 0
}

func journalPath(dir string) string {
	if dir == "" {
		return ""
	}
	names, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// journalGrowth counts the records (and bytes) appended to the journal
// since it was from bytes long, by walking the u32 length | u32 CRC |
// payload frames.
func journalGrowth(dir string, from int64) (records int, bytes int64, err error) {
	path := journalPath(dir)
	if path == "" {
		return 0, 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, 0, err
	}
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return records, bytes, nil // end of the journal
		}
		n := int64(binary.BigEndian.Uint32(hdr[:4]))
		if _, err := f.Seek(n, io.SeekCurrent); err != nil {
			return 0, 0, err
		}
		records++
		bytes += 8 + n
	}
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		doc, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), doc, 0o644); err != nil {
			return err
		}
	}
	return nil
}
