package wire

// Request/response messages of the sailor.Service front door. Each message
// is one rpc frame body; the V tag is checked on both ends so a client and
// daemon from different schema generations fail loudly instead of
// misreading each other.

// Method names the service registers on the rpc layer.
const (
	MethodOpenJob    = "sailor.open-job"
	MethodPlan       = "sailor.plan"
	MethodReplan     = "sailor.replan"
	MethodSimulate   = "sailor.simulate"
	MethodCloseJob   = "sailor.close-job"
	MethodStats      = "sailor.stats"
	MethodSetFleet   = "sailor.set-fleet"
	MethodFleetEvent = "sailor.fleet-event"
	MethodRebalance  = "sailor.rebalance"
	MethodFleetStats = "sailor.fleet-stats"
)

// OpenJobRequest registers a named job: the model to profile, the GPU
// types its pools may contain, and the job's fleet priority. Tenants
// opening jobs with the same (model, GPU set, seed) shape share one
// profiled system behind the scenes.
type OpenJobRequest struct {
	V     int      `json:"v"`
	Job   string   `json:"job"`
	Model Model    `json:"model"`
	GPUs  []string `json:"gpus"`
	// Priority orders the job in fleet mode: higher keeps capacity longer
	// under contention and replans earlier (ties break on job name).
	// Ignored outside fleet mode.
	Priority int `json:"priority"`
}

// OpenJobResponse acknowledges an OpenJobRequest.
type OpenJobResponse struct {
	V int `json:"v"`
}

// PlanRequest asks for a cold plan of a pool for an open job.
type PlanRequest struct {
	V           int         `json:"v"`
	Job         string      `json:"job"`
	Pool        Pool        `json:"pool"`
	Objective   string      `json:"objective"`
	Constraints Constraints `json:"constraints"`
}

// PlanResponse carries the planner result back; it answers both
// PlanRequest and ReplanRequest.
type PlanResponse struct {
	V      int        `json:"v"`
	Result PlanResult `json:"result"`
}

// ReplanRequest asks for a warm replan: plan Pool starting from the
// previously deployed Prev, against the job's persistent warm cache.
type ReplanRequest struct {
	V           int         `json:"v"`
	Job         string      `json:"job"`
	Prev        Plan        `json:"prev"`
	Pool        Pool        `json:"pool"`
	Objective   string      `json:"objective"`
	Constraints Constraints `json:"constraints"`
}

// SimulateRequest asks for an analytical evaluation of a plan.
type SimulateRequest struct {
	V    int    `json:"v"`
	Job  string `json:"job"`
	Plan Plan   `json:"plan"`
}

// SimulateResponse carries the simulator estimate back.
type SimulateResponse struct {
	V        int      `json:"v"`
	Estimate Estimate `json:"estimate"`
}

// CloseJobRequest releases a named job (its shared profiled system stays
// cached for future tenants).
type CloseJobRequest struct {
	V   int    `json:"v"`
	Job string `json:"job"`
}

// CloseJobResponse acknowledges a CloseJobRequest.
type CloseJobResponse struct {
	V int `json:"v"`
}

// StatsRequest asks for a service counter snapshot.
type StatsRequest struct {
	V int `json:"v"`
}

// StatsResponse carries the snapshot back.
type StatsResponse struct {
	V     int          `json:"v"`
	Stats ServiceStats `json:"stats"`
}

// ServiceStats is a point-in-time snapshot of the service's counters.
type ServiceStats struct {
	// UptimeSeconds is the wall-clock age of the service.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts every front-door call (plans, replans, simulates).
	Requests uint64 `json:"requests"`
	// QPS is Requests averaged over the uptime.
	QPS float64 `json:"qps"`
	// Plans/Replans/Simulates split Requests by operation.
	Plans     uint64 `json:"plans"`
	Replans   uint64 `json:"replans"`
	Simulates uint64 `json:"simulates"`
	// Errors counts requests that returned an error.
	Errors uint64 `json:"errors"`
	// InFlight is the number of requests currently executing.
	InFlight int64 `json:"in_flight"`
	// JobsOpen is the number of currently open jobs.
	JobsOpen int `json:"jobs_open"`
	// SystemsCached is the profiled-system LRU's current size;
	// SystemCacheHits/Misses count OpenJob lookups that reused or built one.
	SystemsCached     int    `json:"systems_cached"`
	SystemCacheHits   uint64 `json:"system_cache_hits"`
	SystemCacheMisses uint64 `json:"system_cache_misses"`
	// Recovery reports how the service was restored from a durable data
	// dir; nil for a service that started fresh (so pre-durability stats
	// encodings are byte-unchanged).
	Recovery *RecoveryStats `json:"recovery,omitempty"`
	// Overloaded counts requests shed because the planner wait queue was
	// full, and Degraded counts deadline-cut searches answered with the
	// job's warm incumbent. Omitted at zero so pre-resilience stats
	// encodings are byte-unchanged.
	Overloaded uint64 `json:"overloaded,omitempty"`
	Degraded   uint64 `json:"degraded,omitempty"`
	// JournalError is the recorder's sticky append error, "" while the
	// journal is healthy. A non-empty value means writes since that error
	// are not durable until the next snapshot rotation.
	JournalError string `json:"journal_error,omitempty"`
	// SpecHits, SpecMisses and SpecPrecomputed are always zero, so they
	// are never encoded.
	//
	// Deprecated: kept only for the benchmark module, their last reader;
	// they will be deleted once that reader drops them.
	SpecHits        uint64 `json:"spec_hits,omitempty"`
	SpecMisses      uint64 `json:"spec_misses,omitempty"`
	SpecPrecomputed uint64 `json:"spec_precomputed,omitempty"`
}

// RecoveryStats is the telemetry of one snapshot+journal recovery.
type RecoveryStats struct {
	// SnapshotGen is the generation number of the snapshot that was loaded.
	SnapshotGen uint64 `json:"snapshot_gen"`
	// LedgerVersion is the fleet ledger's mutation counter after the journal
	// suffix replayed (0 when the snapshot holds no fleet state).
	LedgerVersion uint64 `json:"ledger_version"`
	// JobsRestored counts the open jobs the snapshot+journal reconstructed.
	JobsRestored int `json:"jobs_restored"`
	// RecordsReplayed counts the journal records applied on top of the
	// snapshot (0 after a graceful shutdown's final snapshot+rotation).
	RecordsReplayed int `json:"records_replayed"`
	// DurationSeconds is the wall-clock cost of the recovery (load + replay
	// + rotation) — non-deterministic, like SearchTimeNS.
	DurationSeconds float64 `json:"duration_seconds"`
}

// Fleet-mode messages: the shared cluster-state ledger crossing the wire.

// SetFleetRequest installs (or replaces) the service's fleet ledger with
// the given total capacity, enabling fleet mode. Replacing an active ledger
// drops every lease — an operator reset, not a routine call.
type SetFleetRequest struct {
	V        int  `json:"v"`
	Capacity Pool `json:"capacity"`
	// JobCapGPUs bounds any single lease (0 = unlimited) — the fair-share
	// cap that keeps one max-throughput job from leasing the whole fleet.
	JobCapGPUs int `json:"job_cap_gpus"`
}

// SetFleetResponse acknowledges a SetFleetRequest.
type SetFleetResponse struct {
	V int `json:"v"`
}

// FleetEventRequest applies one availability event to the fleet ledger.
type FleetEventRequest struct {
	V     int        `json:"v"`
	Event FleetEvent `json:"event"`
}

// FleetEventResponse reports the leases the event broke, in admission
// order (priority descending, then job name ascending); their jobs must
// replan (Rebalance).
type FleetEventResponse struct {
	V      int         `json:"v"`
	Broken []LeaseInfo `json:"broken"`
}

// RebalanceRequest asks the service to replan every fleet job that holds
// no lease — jobs preempted by events and jobs not yet admitted — in
// deterministic priority order.
type RebalanceRequest struct {
	V int `json:"v"`
}

// RebalanceResponse carries the per-job outcomes back, in the order the
// jobs were replanned.
type RebalanceResponse struct {
	V     int             `json:"v"`
	Steps []RebalanceStep `json:"steps"`
}

// RebalanceStep is one job's outcome in a rebalance pass.
type RebalanceStep struct {
	Job      string `json:"job"`
	Priority int    `json:"priority"`
	// Action is "admit" (first lease), "replan" (warm replan after a broken
	// lease), or "wait" (no free capacity / no feasible plan this pass).
	Action string `json:"action"`
	// Result is the planner result backing the new lease (admit/replan).
	Result *PlanResult `json:"result,omitempty"`
	// Error is the planner failure that left the job waiting.
	Error string `json:"error,omitempty"`
}

// FleetStatsRequest asks for a fleet ledger snapshot.
type FleetStatsRequest struct {
	V int `json:"v"`
}

// FleetStatsResponse carries the snapshot back.
type FleetStatsResponse struct {
	V     int        `json:"v"`
	Stats FleetStats `json:"stats"`
}

// FleetStats is a point-in-time snapshot of the fleet ledger.
type FleetStats struct {
	// Version is the ledger's mutation counter.
	Version uint64 `json:"version"`
	// CapacityGPUs/LeasedGPUs/FreeGPUs total the fleet, its leases, and
	// what remains for admission.
	CapacityGPUs int `json:"capacity_gpus"`
	LeasedGPUs   int `json:"leased_gpus"`
	FreeGPUs     int `json:"free_gpus"`
	// JobCapGPUs is the per-job lease bound (0 = unlimited).
	JobCapGPUs int `json:"job_cap_gpus"`
	// Capacity and Free are the full pools behind the totals.
	Capacity Pool `json:"capacity"`
	Free     Pool `json:"free"`
	// Leases is the per-job lease table in admission order.
	Leases []LeaseInfo `json:"leases"`
}

// LeaseInfo is one row of the fleet's per-job lease table.
type LeaseInfo struct {
	Job      string `json:"job"`
	Priority int    `json:"priority"`
	GPUs     int    `json:"gpus"`
	// AcquiredVersion is the ledger version at which the lease was granted.
	AcquiredVersion uint64 `json:"acquired_version"`
	Plan            Plan   `json:"plan"`
}
