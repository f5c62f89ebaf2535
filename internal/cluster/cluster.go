// Package cluster models the resource pool a job can draw from: zones and
// regions, per-type GPU quotas, and point-in-time availability snapshots.
//
// The Sailor planner takes resource quotas (maximum GPUs per type per zone)
// plus current availability feedback and selects an allocation from the pool
// (§4); baselines instead receive a fixed VM topology, which this package
// can also derive.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hardware"
)

// Pool is an immutable-by-convention availability snapshot: how many GPUs of
// each type are currently allocatable in each zone.
type Pool struct {
	counts map[core.Zone]map[core.GPUType]int
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{counts: map[core.Zone]map[core.GPUType]int{}}
}

// Set records that n GPUs of type g are available in zone z.
func (p *Pool) Set(z core.Zone, g core.GPUType, n int) *Pool {
	if p.counts[z] == nil {
		p.counts[z] = map[core.GPUType]int{}
	}
	p.counts[z][g] = n
	return p
}

// Add increments availability of (z, g) by n (n may be negative).
func (p *Pool) Add(z core.Zone, g core.GPUType, n int) *Pool {
	if p.counts[z] == nil {
		p.counts[z] = map[core.GPUType]int{}
	}
	p.counts[z][g] += n
	if p.counts[z][g] < 0 {
		p.counts[z][g] = 0
	}
	return p
}

// CheckCounts rejects a caller-supplied pool with a negative cell (Zones
// would drop that zone's real GPUs), naming the first in zone-then-GPU
// order. A nil pool passes; Subtract and Add never make a cell negative.
func (p *Pool) CheckCounts() error {
	if p == nil {
		return nil
	}
	var bad *Entry
	for z, m := range p.counts {
		for g, c := range m {
			if c < 0 && (bad == nil || z.Name < bad.Zone.Name || z.Name == bad.Zone.Name && g < bad.GPU) {
				bad = &Entry{Zone: z, GPU: g, Count: c}
			}
		}
	}
	if bad != nil {
		return fmt.Errorf("cluster: pool cell %s/%s has negative count %d", bad.Zone.Name, bad.GPU, bad.Count)
	}
	return nil
}

// Available returns the allocatable GPU count for (z, g).
func (p *Pool) Available(z core.Zone, g core.GPUType) int {
	return p.counts[z][g]
}

// TotalOf returns the pool-wide count of one GPU type.
func (p *Pool) TotalOf(g core.GPUType) int {
	n := 0
	for _, m := range p.counts {
		n += m[g]
	}
	return n
}

// TotalGPUs returns the pool-wide GPU count over all types.
func (p *Pool) TotalGPUs() int {
	n := 0
	for _, m := range p.counts {
		for _, c := range m {
			n += c
		}
	}
	return n
}

// Zones returns all zones with any availability, sorted by name.
func (p *Pool) Zones() []core.Zone {
	zs := make([]core.Zone, 0, len(p.counts))
	for z, m := range p.counts {
		total := 0
		for _, c := range m {
			total += c
		}
		if total > 0 {
			zs = append(zs, z)
		}
	}
	sort.Slice(zs, func(i, j int) bool { return zs[i].Name < zs[j].Name })
	return zs
}

// Regions returns the distinct regions present in the pool, sorted.
func (p *Pool) Regions() []string {
	seen := map[string]bool{}
	for _, z := range p.Zones() {
		seen[z.Region] = true
	}
	rs := make([]string, 0, len(seen))
	for r := range seen {
		rs = append(rs, r)
	}
	sort.Strings(rs)
	return rs
}

// GPUTypes returns the distinct GPU types with nonzero availability, sorted.
func (p *Pool) GPUTypes() []core.GPUType {
	seen := map[core.GPUType]bool{}
	for _, m := range p.counts {
		for g, c := range m {
			if c > 0 {
				seen[g] = true
			}
		}
	}
	ts := make([]core.GPUType, 0, len(seen))
	for t := range seen {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// Entry is one (zone, GPU type, count) availability cell of a pool.
type Entry struct {
	Zone  core.Zone
	GPU   core.GPUType
	Count int
}

// Entries returns the pool's nonzero cells sorted by zone name then GPU
// type — the deterministic iteration order codecs and fingerprints rely on.
// Two pools with equal String() renderings have equal Entries.
func (p *Pool) Entries() []Entry {
	var out []Entry
	for _, z := range p.Zones() {
		m := p.counts[z]
		ts := make([]core.GPUType, 0, len(m))
		for g := range m {
			if m[g] > 0 {
				ts = append(ts, g)
			}
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for _, g := range ts {
			out = append(out, Entry{Zone: z, GPU: g, Count: m[g]})
		}
	}
	return out
}

// Clone returns a deep copy, used by the planner's DP recursion.
func (p *Pool) Clone() *Pool {
	q := NewPool()
	for z, m := range p.counts {
		for g, c := range m {
			q.Set(z, g, c)
		}
	}
	return q
}

// CanFit reports whether the pool can host a plan, and Subtract removes a
// plan's GPUs (used when stacking jobs or replaying availability changes).
func (p *Pool) CanFit(plan core.Plan) bool {
	need := planDemand(plan)
	for k, n := range need {
		if p.Available(k.z, k.g) < n {
			return false
		}
	}
	return true
}

// Subtract removes a plan's GPU demand from the pool. It returns an error
// naming the first deficient cell (in zone-then-GPU order, so the message
// is deterministic) when the plan does not fit, leaving the pool untouched.
func (p *Pool) Subtract(plan core.Plan) error {
	need := planDemand(plan)
	keys := make([]demandKey, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].z.Name != keys[j].z.Name {
			return keys[i].z.Name < keys[j].z.Name
		}
		return keys[i].g < keys[j].g
	})
	for _, k := range keys {
		if have := p.Available(k.z, k.g); have < need[k] {
			return fmt.Errorf("cluster: plan needs %d %s in %s, only %d available",
				need[k], k.g, k.z.Name, have)
		}
	}
	for _, k := range keys {
		p.Add(k.z, k.g, -need[k])
	}
	return nil
}

type demandKey struct {
	z core.Zone
	g core.GPUType
}

func planDemand(plan core.Plan) map[demandKey]int {
	need := map[demandKey]int{}
	for _, s := range plan.Stages {
		for _, r := range s.Replicas {
			need[demandKey{r.Zone, r.GPU}] += r.GPUCount()
		}
	}
	return need
}

// CapTotal returns a copy of the pool truncated to at most n GPUs in
// total, filling cells in the canonical Entries order (zone name then GPU
// type), so equal pools truncate identically. n <= 0 returns an empty pool.
func (p *Pool) CapTotal(n int) *Pool {
	q := NewPool()
	for _, e := range p.Entries() {
		if n <= 0 {
			break
		}
		take := e.Count
		if take > n {
			take = n
		}
		q.Set(e.Zone, e.GPU, take)
		n -= take
	}
	return q
}

// FilterTypes returns a copy of the pool restricted to the given GPU types.
// An empty filter returns a full copy. The fleet ledger uses this to build
// per-job views over only the cells a job's profiled System can plan with,
// so the per-job cap is spent on usable capacity and jobs with disjoint
// type sets see views that are independent of each other's leases.
func (p *Pool) FilterTypes(gpus []core.GPUType) *Pool {
	if len(gpus) == 0 {
		return p.Clone()
	}
	keep := map[core.GPUType]bool{}
	for _, g := range gpus {
		keep[g] = true
	}
	q := NewPool()
	for z, m := range p.counts {
		for g, c := range m {
			if keep[g] {
				q.Set(z, g, c)
			}
		}
	}
	return q
}

// Nodes returns the number of whole nodes of the default shape available
// for (z, g) — the fixed 4-GPU-VM topology baselines require (§5.2).
func (p *Pool) Nodes(z core.Zone, g core.GPUType) int {
	node := hardware.DefaultNodeType(g)
	return p.Available(z, g) / node.GPUsPerNode
}

// String renders the pool sorted by zone then GPU type.
func (p *Pool) String() string {
	var out string
	for _, z := range p.Zones() {
		m := p.counts[z]
		ts := make([]core.GPUType, 0, len(m))
		for g := range m {
			ts = append(ts, g)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for _, g := range ts {
			if m[g] > 0 {
				out += fmt.Sprintf("%s %s x%d\n", z.Name, g, m[g])
			}
		}
	}
	return out
}

// Zone helpers used across the evaluation scenarios.

// GCPZone returns a zone named like "us-central1-a".
func GCPZone(region string, letter byte) core.Zone {
	return core.Zone{Region: region, Name: fmt.Sprintf("%s-%c", region, letter)}
}

// OnPrem returns the single synthetic zone used for on-premise clusters.
func OnPrem() core.Zone { return core.Zone{Region: "onprem", Name: "onprem-dc1"} }
