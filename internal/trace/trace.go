// Package trace models dynamic GPU availability (paper Figure 2): the
// number of allocatable GPUs per zone fluctuates as capacity frees up and is
// reclaimed. Traces drive the elasticity experiments and the planner's
// re-evaluation cadence.
//
// The paper's trace was collected on GCP in April 2024 by continuously
// requesting 8 A100s in two zones for 8 hours; one zone reached 8 GPUs after
// about 7 hours, the other never did. GCPA100Trace regenerates that shape
// from a seeded stochastic allocator model.
package trace

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Event is one availability change: Delta GPUs of a type appear (positive)
// or are reclaimed (negative) in a zone at time At after trace start.
type Event struct {
	At    time.Duration
	Zone  core.Zone
	GPU   core.GPUType
	Delta int
}

// CapEvent is one demand-autoscaling directive: at time At the fleet's
// per-job GPU cap becomes GPUs (0 removes the cap). Cap events ride
// alongside availability events in external trace files and composed
// scenarios; the fleet replay path applies them through
// fleet.Ledger.SetJobCap, evicting oversized leases in admission order.
type CapEvent struct {
	At   time.Duration
	GPUs int
}

// Trace is a time-ordered sequence of availability events over a horizon,
// optionally annotated with demand-autoscaling cap events.
type Trace struct {
	Horizon   time.Duration
	Events    []Event
	CapEvents []CapEvent
}

// sortEvents orders events (and cap events) by time, keeping insertion
// order for ties — the canonical ordering every replay view assumes.
func (t *Trace) sortEvents() {
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].At < t.Events[j].At })
	sort.SliceStable(t.CapEvents, func(i, j int) bool { return t.CapEvents[i].At < t.CapEvents[j].At })
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	out := &Trace{Horizon: t.Horizon}
	if t.Events != nil {
		out.Events = append([]Event(nil), t.Events...)
	}
	if t.CapEvents != nil {
		out.CapEvents = append([]CapEvent(nil), t.CapEvents...)
	}
	return out
}

// Step is one instant of a trace replay: the cap events and then the
// availability events that take effect at At, each in trace order.
type Step struct {
	At     time.Duration
	Caps   []CapEvent
	Events []Event
}

// Steps groups the trace's cap and availability events by instant, in time
// order. Within an instant the cap events come first, so a quota change
// takes effect before the availability events of the same instant. The
// steps' slices share the trace's storage.
func (t *Trace) Steps() []Step {
	var steps []Step
	events, caps := t.Events, t.CapEvents
	for len(events) > 0 || len(caps) > 0 {
		var at time.Duration
		if len(caps) > 0 && (len(events) == 0 || caps[0].At <= events[0].At) {
			at = caps[0].At
		} else {
			at = events[0].At
		}
		nc, ne := 0, 0
		for nc < len(caps) && caps[nc].At == at {
			nc++
		}
		for ne < len(events) && events[ne].At == at {
			ne++
		}
		steps = append(steps, Step{At: at, Caps: caps[:nc:nc], Events: events[:ne:ne]})
		caps, events = caps[nc:], events[ne:]
	}
	return steps
}

// CapAt returns the per-job GPU cap in force at time at — the latest cap
// event at or before it — and whether any cap event applies by then.
func (t *Trace) CapAt(at time.Duration) (int, bool) {
	cap, ok := 0, false
	for _, c := range t.CapEvents {
		if c.At > at {
			break
		}
		cap, ok = c.GPUs, true
	}
	return cap, ok
}

// CountAt returns the cumulative availability of (zone, gpu) at time at.
// Replay semantics match PoolAt: a reclamation can never take availability
// below zero, so an over-reclaiming event clamps at zero step by step rather
// than accruing a negative balance a later grant would have to pay off.
func (t *Trace) CountAt(at time.Duration, z core.Zone, g core.GPUType) int {
	n := 0
	for _, e := range t.Events {
		if e.At > at {
			break
		}
		if e.Zone == z && e.GPU == g {
			n += e.Delta
			if n < 0 {
				n = 0
			}
		}
	}
	return n
}

// PoolAt materialises the availability snapshot at time at.
func (t *Trace) PoolAt(at time.Duration) *cluster.Pool {
	p := cluster.NewPool()
	for _, e := range t.Events {
		if e.At > at {
			break
		}
		p.Add(e.Zone, e.GPU, e.Delta)
	}
	return p
}

// DistinctPools materialises the sequence of distinct non-empty
// availability snapshots the trace's events produce — the replan sequence
// an elastic controller issues while replaying it. Events sharing a
// timestamp are coalesced into one snapshot, and a total blackout resets
// the dedup state (capacity returning to the pre-blackout level is a fresh
// deployment), both matching the controller's per-event PoolAt view.
func (t *Trace) DistinctPools() []*cluster.Pool {
	var out []*cluster.Pool
	cur := cluster.NewPool()
	last := ""
	for i := 0; i < len(t.Events); {
		at := t.Events[i].At
		for ; i < len(t.Events) && t.Events[i].At == at; i++ {
			e := t.Events[i]
			cur.Add(e.Zone, e.GPU, e.Delta)
		}
		if cur.TotalGPUs() == 0 {
			last = ""
			continue
		}
		if s := cur.String(); s != last {
			last = s
			out = append(out, cur.Clone())
		}
	}
	return out
}

// Sample returns (time, count) pairs for one (zone, gpu) series at a fixed
// step, suitable for plotting Figure 2.
func (t *Trace) Sample(z core.Zone, g core.GPUType, step time.Duration) []Point {
	var pts []Point
	for at := time.Duration(0); at <= t.Horizon; at += step {
		pts = append(pts, Point{At: at, Count: t.CountAt(at, z, g)})
	}
	return pts
}

// Point is one sample of an availability series.
type Point struct {
	At    time.Duration
	Count int
}

// PeakGPUs returns the maximum total GPU availability the trace ever
// reaches, scanning event boundaries with the same stepwise clamping as
// CountAt. Overlays and replay harnesses use it to derive trace-intrinsic
// scales (e.g. an autoscaling cap as a fraction of peak capacity).
func (t *Trace) PeakGPUs() int {
	type cell struct {
		z core.Zone
		g core.GPUType
	}
	level := map[cell]int{}
	total, peak := 0, 0
	for i := 0; i < len(t.Events); {
		at := t.Events[i].At
		for ; i < len(t.Events) && t.Events[i].At == at; i++ {
			e := t.Events[i]
			c := cell{e.Zone, e.GPU}
			n := level[c] + e.Delta
			if n < 0 {
				n = 0
			}
			total += n - level[c]
			level[c] = n
		}
		// Sample at timestamp boundaries only, so a transient within one
		// instant (a +N immediately cancelled by a -N at the same At) does
		// not register as capacity the replay views never see.
		if total > peak {
			peak = total
		}
	}
	return peak
}

// GPUTypes returns the distinct GPU types the trace's events mention, in
// sorted order — the profiling set a replay of an external trace needs.
func (t *Trace) GPUTypes() []core.GPUType {
	seen := map[core.GPUType]bool{}
	var out []core.GPUType
	for _, e := range t.Events {
		if !seen[e.GPU] {
			seen[e.GPU] = true
			out = append(out, e.GPU)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GCPA100Trace generates a Figure-2-shaped trace: two zones, 8 A100s
// requested in each over an 8-hour window. Zone A acquires GPUs in bursts
// with occasional reclamations and reaches the full 8 only near hour 7;
// zone B stalls below the request for the whole window.
func GCPA100Trace(seed int64) (*Trace, core.Zone, core.Zone) {
	return gcpA100Trace(seed, 8*time.Hour, 8)
}

// gcpA100Trace is the parameterized Figure-2 generator: `req` GPUs chased
// over `horizon`, zone A reaching the request at 7/8 of the horizon and
// zone B capped at 5/8 of it — the paper's shape at any scale. The
// defaults (8h, 8) reproduce GCPA100Trace exactly.
func gcpA100Trace(seed int64, horizon time.Duration, req int) (*Trace, core.Zone, core.Zone) {
	zoneA := cluster.GCPZone("us-central1", 'a')
	zoneB := cluster.GCPZone("us-central1", 'b')
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{Horizon: horizon}

	gen := func(z core.Zone, acquireRatePerHour, reclaimProb float64, cap int, fullAt time.Duration) {
		have := 0
		for at := time.Duration(0); at < t.Horizon; at += time.Duration(rng.ExpFloat64() * float64(time.Hour) / acquireRatePerHour) {
			if at <= 0 {
				at = time.Minute
			}
			if have > 0 && rng.Float64() < reclaimProb {
				d := 1 + rng.Intn(2)
				if d > have {
					d = have
				}
				t.Events = append(t.Events, Event{At: at, Zone: z, GPU: core.A100, Delta: -d})
				have -= d
				continue
			}
			if have >= cap {
				continue
			}
			// Before fullAt, cap acquisitions below the request to model
			// the long wait for the final GPUs.
			limit := cap
			if fullAt > 0 && at < fullAt {
				limit = cap - 2
				if limit < 1 {
					limit = 1
				}
			}
			if have >= limit {
				continue
			}
			d := 1 + rng.Intn(2)
			if have+d > limit {
				d = limit - have
			}
			if d <= 0 {
				continue
			}
			t.Events = append(t.Events, Event{At: at, Zone: z, GPU: core.A100, Delta: d})
			have += d
		}
		if fullAt > 0 {
			// Force the final jump to the full request at fullAt.
			if have < cap {
				t.Events = append(t.Events, Event{At: fullAt, Zone: z, GPU: core.A100, Delta: cap - have})
			}
		}
	}
	capB := req * 5 / 8
	if capB < 1 {
		capB = 1
	}
	gen(zoneA, 2.0, 0.25, req, horizon*7/8)
	gen(zoneB, 1.2, 0.35, capB, 0) // never reaches the request
	t.sortEvents()
	return t, zoneA, zoneB
}

// Synthetic builds a trace from explicit events, for tests and examples.
func Synthetic(horizon time.Duration, events ...Event) *Trace {
	t := &Trace{Horizon: horizon, Events: append([]Event(nil), events...)}
	t.sortEvents()
	return t
}
