package wire

// The decoder of each rpc message and of each DTO a message carries. Each
// object decoder loops over the object's members and switches on the keys
// its struct's json tags name; its *Fields list holds the same names,
// against which unknown checks every other key for a case-insensitive
// match before skipping its value.

var (
	zoneFields        = []string{"region", "name"}
	replicaRunFields  = []string{"gpu", "tp", "zone", "n"}
	stageFields       = []string{"first_layer", "num_layers", "replicas"}
	planFields        = []string{"stages", "micro_batch_size"}
	poolEntryFields   = []string{"zone", "gpu", "count"}
	poolFields        = []string{"entries"}
	constraintsFields = []string{"max_cost_per_iter", "min_throughput", "max_iter_time"}
	modelFields       = []string{"name", "hidden", "layers", "heads", "vocab", "seq_len", "global_batch"}
	estimateFields    = []string{"iter_time", "compute_cost", "egress_cost", "peak_memory", "peak_memory_gpu",
		"fits_memory", "stage_times", "straggler_stage"}
	planResultFields = []string{"plan", "estimate", "search_time_ns", "explored", "warm_start",
		"cache_hits", "degraded"}
	fleetEventFields   = []string{"at_ns", "zone", "gpu", "delta"}
	serviceStatsFields = []string{"uptime_seconds", "requests", "qps", "plans", "replans", "simulates",
		"errors", "in_flight", "jobs_open", "systems_cached", "system_cache_hits", "system_cache_misses",
		"recovery", "overloaded", "degraded", "journal_error", "spec_hits", "spec_misses", "spec_precomputed"}
	recoveryStatsFields = []string{"snapshot_gen", "ledger_version", "jobs_restored", "records_replayed",
		"duration_seconds"}
	rebalanceStepFields = []string{"job", "priority", "action", "result", "error"}
	fleetStatsFields    = []string{"version", "capacity_gpus", "leased_gpus", "free_gpus", "job_cap_gpus",
		"capacity", "free", "leases"}
	leaseInfoFields = []string{"job", "priority", "gpus", "acquired_version", "plan"}

	versionFields         = []string{"v"}
	openJobRequestFields  = []string{"v", "job", "model", "gpus", "priority"}
	planRequestFields     = []string{"v", "job", "pool", "objective", "constraints"}
	planResponseFields    = []string{"v", "result"}
	replanRequestFields   = []string{"v", "job", "prev", "pool", "objective", "constraints"}
	simulateRequestFields = []string{"v", "job", "plan"}
	simulateRespFields    = []string{"v", "estimate"}
	closeJobRequestFields = []string{"v", "job"}
	statsResponseFields   = []string{"v", "stats"}
	setFleetRequestFields = []string{"v", "capacity", "job_cap_gpus"}
	fleetEventReqFields   = []string{"v", "event"}
	fleetEventRespFields  = []string{"v", "broken"}
	rebalanceRespFields   = []string{"v", "steps"}
)

func (d *decoder) zone(z *Zone) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "region":
			d.string(&z.Region)
		case "name":
			d.string(&z.Name)
		default:
			d.unknown(zoneFields, key)
		}
	}
}

func (d *decoder) replicaRun(r *ReplicaRun) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "gpu":
			d.string(&r.GPU)
		case "tp":
			d.int(&r.TP)
		case "zone":
			d.zone(&r.Zone)
		case "n":
			d.int(&r.N)
		default:
			d.unknown(replicaRunFields, key)
		}
	}
}

func (d *decoder) stage(s *Stage) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "first_layer":
			d.int(&s.FirstLayer)
		case "num_layers":
			d.int(&s.NumLayers)
		case "replicas":
			decodeArray(d, &s.Replicas, (*decoder).replicaRun)
		default:
			d.unknown(stageFields, key)
		}
	}
}

func (d *decoder) plan(p *Plan) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "stages":
			decodeArray(d, &p.Stages, (*decoder).stage)
		case "micro_batch_size":
			d.int(&p.MicroBatchSize)
		default:
			d.unknown(planFields, key)
		}
	}
}

func (d *decoder) poolEntry(e *PoolEntry) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "zone":
			d.zone(&e.Zone)
		case "gpu":
			d.string(&e.GPU)
		case "count":
			d.int(&e.Count)
		default:
			d.unknown(poolEntryFields, key)
		}
	}
}

func (d *decoder) pool(p *Pool) {
	for more := d.openObject(); more; more = d.nextMember() {
		if key := d.key(); string(key) == "entries" {
			decodeArray(d, &p.Entries, (*decoder).poolEntry)
		} else {
			d.unknown(poolFields, key)
		}
	}
}

func (d *decoder) constraints(c *Constraints) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "max_cost_per_iter":
			d.float64(&c.MaxCostPerIter)
		case "min_throughput":
			d.float64(&c.MinThroughput)
		case "max_iter_time":
			d.float64(&c.MaxIterTime)
		default:
			d.unknown(constraintsFields, key)
		}
	}
}

func (d *decoder) model(m *Model) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "name":
			d.string(&m.Name)
		case "hidden":
			d.int(&m.Hidden)
		case "layers":
			d.int(&m.Layers)
		case "heads":
			d.int(&m.Heads)
		case "vocab":
			d.int(&m.Vocab)
		case "seq_len":
			d.int(&m.SeqLen)
		case "global_batch":
			d.int(&m.GlobalBatch)
		default:
			d.unknown(modelFields, key)
		}
	}
}

func (d *decoder) estimate(e *Estimate) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "iter_time":
			d.float64(&e.IterTime)
		case "compute_cost":
			d.float64(&e.ComputeCost)
		case "egress_cost":
			d.float64(&e.EgressCost)
		case "peak_memory":
			d.int64(&e.PeakMemory)
		case "peak_memory_gpu":
			d.string(&e.PeakMemoryGPU)
		case "fits_memory":
			d.bool(&e.FitsMemory)
		case "stage_times":
			decodeArray(d, &e.StageTimes, (*decoder).float64)
		case "straggler_stage":
			d.int(&e.StragglerStage)
		default:
			d.unknown(estimateFields, key)
		}
	}
}

func (d *decoder) planResult(r *PlanResult) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "plan":
			d.plan(&r.Plan)
		case "estimate":
			d.estimate(&r.Estimate)
		case "search_time_ns":
			d.int64(&r.SearchTimeNS)
		case "explored":
			d.int(&r.Explored)
		case "warm_start":
			d.bool(&r.WarmStart)
		case "cache_hits":
			d.int(&r.CacheHits)
		case "degraded":
			d.bool(&r.Degraded)
		default:
			d.unknown(planResultFields, key)
		}
	}
}

func (d *decoder) fleetEvent(e *FleetEvent) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "at_ns":
			d.int64(&e.AtNS)
		case "zone":
			d.zone(&e.Zone)
		case "gpu":
			d.string(&e.GPU)
		case "delta":
			d.int(&e.Delta)
		default:
			d.unknown(fleetEventFields, key)
		}
	}
}

func (d *decoder) serviceStats(s *ServiceStats) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "uptime_seconds":
			d.float64(&s.UptimeSeconds)
		case "requests":
			d.uint64(&s.Requests)
		case "qps":
			d.float64(&s.QPS)
		case "plans":
			d.uint64(&s.Plans)
		case "replans":
			d.uint64(&s.Replans)
		case "simulates":
			d.uint64(&s.Simulates)
		case "errors":
			d.uint64(&s.Errors)
		case "in_flight":
			d.int64(&s.InFlight)
		case "jobs_open":
			d.int(&s.JobsOpen)
		case "systems_cached":
			d.int(&s.SystemsCached)
		case "system_cache_hits":
			d.uint64(&s.SystemCacheHits)
		case "system_cache_misses":
			d.uint64(&s.SystemCacheMisses)
		case "recovery":
			decodePtr(d, &s.Recovery, (*decoder).recoveryStats)
		case "overloaded":
			d.uint64(&s.Overloaded)
		case "degraded":
			d.uint64(&s.Degraded)
		case "journal_error":
			d.string(&s.JournalError)
		case "spec_hits":
			d.uint64(&s.SpecHits)
		case "spec_misses":
			d.uint64(&s.SpecMisses)
		case "spec_precomputed":
			d.uint64(&s.SpecPrecomputed)
		default:
			d.unknown(serviceStatsFields, key)
		}
	}
}

func (d *decoder) recoveryStats(r *RecoveryStats) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "snapshot_gen":
			d.uint64(&r.SnapshotGen)
		case "ledger_version":
			d.uint64(&r.LedgerVersion)
		case "jobs_restored":
			d.int(&r.JobsRestored)
		case "records_replayed":
			d.int(&r.RecordsReplayed)
		case "duration_seconds":
			d.float64(&r.DurationSeconds)
		default:
			d.unknown(recoveryStatsFields, key)
		}
	}
}

func (d *decoder) rebalanceStep(s *RebalanceStep) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "job":
			d.string(&s.Job)
		case "priority":
			d.int(&s.Priority)
		case "action":
			d.string(&s.Action)
		case "result":
			decodePtr(d, &s.Result, (*decoder).planResult)
		case "error":
			d.string(&s.Error)
		default:
			d.unknown(rebalanceStepFields, key)
		}
	}
}

func (d *decoder) fleetStats(s *FleetStats) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "version":
			d.uint64(&s.Version)
		case "capacity_gpus":
			d.int(&s.CapacityGPUs)
		case "leased_gpus":
			d.int(&s.LeasedGPUs)
		case "free_gpus":
			d.int(&s.FreeGPUs)
		case "job_cap_gpus":
			d.int(&s.JobCapGPUs)
		case "capacity":
			d.pool(&s.Capacity)
		case "free":
			d.pool(&s.Free)
		case "leases":
			decodeArray(d, &s.Leases, (*decoder).leaseInfo)
		default:
			d.unknown(fleetStatsFields, key)
		}
	}
}

func (d *decoder) leaseInfo(l *LeaseInfo) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "job":
			d.string(&l.Job)
		case "priority":
			d.int(&l.Priority)
		case "gpus":
			d.int(&l.GPUs)
		case "acquired_version":
			d.uint64(&l.AcquiredVersion)
		case "plan":
			d.plan(&l.Plan)
		default:
			d.unknown(leaseInfoFields, key)
		}
	}
}

// versionTag decodes a message that carries nothing but its version tag.
func (d *decoder) versionTag(v *int) {
	for more := d.openObject(); more; more = d.nextMember() {
		if key := d.key(); string(key) == "v" {
			d.int(v)
		} else {
			d.unknown(versionFields, key)
		}
	}
}

func (m *OpenJobRequest) version() int { return m.V }
func (m *OpenJobRequest) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "job":
			d.string(&m.Job)
		case "model":
			d.model(&m.Model)
		case "gpus":
			decodeArray(d, &m.GPUs, (*decoder).string)
		case "priority":
			d.int(&m.Priority)
		default:
			d.unknown(openJobRequestFields, key)
		}
	}
}

func (m *OpenJobResponse) version() int      { return m.V }
func (m *OpenJobResponse) decode(d *decoder) { d.versionTag(&m.V) }

func (m *PlanRequest) version() int { return m.V }
func (m *PlanRequest) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "job":
			d.string(&m.Job)
		case "pool":
			d.pool(&m.Pool)
		case "objective":
			d.string(&m.Objective)
		case "constraints":
			d.constraints(&m.Constraints)
		default:
			d.unknown(planRequestFields, key)
		}
	}
}

func (m *PlanResponse) version() int { return m.V }
func (m *PlanResponse) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "result":
			d.planResult(&m.Result)
		default:
			d.unknown(planResponseFields, key)
		}
	}
}

func (m *ReplanRequest) version() int { return m.V }
func (m *ReplanRequest) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "job":
			d.string(&m.Job)
		case "prev":
			d.plan(&m.Prev)
		case "pool":
			d.pool(&m.Pool)
		case "objective":
			d.string(&m.Objective)
		case "constraints":
			d.constraints(&m.Constraints)
		default:
			d.unknown(replanRequestFields, key)
		}
	}
}

func (m *SimulateRequest) version() int { return m.V }
func (m *SimulateRequest) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "job":
			d.string(&m.Job)
		case "plan":
			d.plan(&m.Plan)
		default:
			d.unknown(simulateRequestFields, key)
		}
	}
}

func (m *SimulateResponse) version() int { return m.V }
func (m *SimulateResponse) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "estimate":
			d.estimate(&m.Estimate)
		default:
			d.unknown(simulateRespFields, key)
		}
	}
}

func (m *CloseJobRequest) version() int { return m.V }
func (m *CloseJobRequest) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "job":
			d.string(&m.Job)
		default:
			d.unknown(closeJobRequestFields, key)
		}
	}
}

func (m *CloseJobResponse) version() int      { return m.V }
func (m *CloseJobResponse) decode(d *decoder) { d.versionTag(&m.V) }

func (m *StatsRequest) version() int      { return m.V }
func (m *StatsRequest) decode(d *decoder) { d.versionTag(&m.V) }

func (m *StatsResponse) version() int { return m.V }
func (m *StatsResponse) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "stats":
			d.serviceStats(&m.Stats)
		default:
			d.unknown(statsResponseFields, key)
		}
	}
}

func (m *SetFleetRequest) version() int { return m.V }
func (m *SetFleetRequest) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "capacity":
			d.pool(&m.Capacity)
		case "job_cap_gpus":
			d.int(&m.JobCapGPUs)
		default:
			d.unknown(setFleetRequestFields, key)
		}
	}
}

func (m *SetFleetResponse) version() int      { return m.V }
func (m *SetFleetResponse) decode(d *decoder) { d.versionTag(&m.V) }

func (m *FleetEventRequest) version() int { return m.V }
func (m *FleetEventRequest) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "event":
			d.fleetEvent(&m.Event)
		default:
			d.unknown(fleetEventReqFields, key)
		}
	}
}

func (m *FleetEventResponse) version() int { return m.V }
func (m *FleetEventResponse) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "broken":
			decodeArray(d, &m.Broken, (*decoder).leaseInfo)
		default:
			d.unknown(fleetEventRespFields, key)
		}
	}
}

func (m *RebalanceRequest) version() int      { return m.V }
func (m *RebalanceRequest) decode(d *decoder) { d.versionTag(&m.V) }

func (m *RebalanceResponse) version() int { return m.V }
func (m *RebalanceResponse) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "steps":
			decodeArray(d, &m.Steps, (*decoder).rebalanceStep)
		default:
			d.unknown(rebalanceRespFields, key)
		}
	}
}

func (m *FleetStatsRequest) version() int      { return m.V }
func (m *FleetStatsRequest) decode(d *decoder) { d.versionTag(&m.V) }

func (m *FleetStatsResponse) version() int { return m.V }
func (m *FleetStatsResponse) decode(d *decoder) {
	for more := d.openObject(); more; more = d.nextMember() {
		switch key := d.key(); string(key) {
		case "v":
			d.int(&m.V)
		case "stats":
			d.fleetStats(&m.Stats)
		default:
			d.unknown(statsResponseFields, key)
		}
	}
}
