package sailor

// Client is the wire-side implementation of API: it speaks the versioned
// request/response messages of internal/wire over the internal/rpc framing
// to a sailor-serve daemon (or any Server). One Client multiplexes
// concurrent calls over a single connection; when that connection dies,
// the retry loop in retry.go re-dials and (for idempotent calls) retries
// with capped, seeded-jitter exponential backoff. Context deadlines ride
// the wire: the server honors them end to end, cutting searches short
// (and degrading to the warm incumbent where it can).

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// Client drives a remote Service. Create one with Dial or DialWith; Close
// releases the connection.
type Client struct {
	addr string
	cfg  DialConfig

	mu     sync.Mutex
	rpc    *rpc.Client
	rng    *rand.Rand
	closed bool
}

var _ API = (*Client)(nil)

// Close tears the connection down; in-flight calls fail, and no further
// re-dials are attempted.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	rc := c.rpc
	c.rpc = nil
	c.mu.Unlock()
	if rc == nil {
		return nil
	}
	return rc.Close()
}

// OpenJob implements API over the wire. Mutating: retried only under
// RetryPolicy.RetryMutating.
func (c *Client) OpenJob(job string, m Model, gpus []GPUType, priority int) error {
	names := make([]string, len(gpus))
	for i, g := range gpus {
		names[i] = string(g)
	}
	req := wire.OpenJobRequest{V: wire.Version, Job: job, Model: wire.FromModel(m), GPUs: names, Priority: priority}
	var resp wire.OpenJobResponse
	return c.call(context.Background(), wire.MethodOpenJob, req, &resp, true)
}

// SetFleet implements API over the wire. Mutating.
func (c *Client) SetFleet(capacity *Pool, jobCapGPUs int) error {
	req := wire.SetFleetRequest{V: wire.Version, Capacity: wire.FromPool(capacity), JobCapGPUs: jobCapGPUs}
	var resp wire.SetFleetResponse
	return c.call(context.Background(), wire.MethodSetFleet, req, &resp, true)
}

// FleetEvent implements API over the wire. Mutating.
func (c *Client) FleetEvent(ev TraceEvent) ([]LeaseInfo, error) {
	req := wire.FleetEventRequest{V: wire.Version, Event: wire.FromFleetEvent(ev)}
	var resp wire.FleetEventResponse
	if err := c.call(context.Background(), wire.MethodFleetEvent, req, &resp, true); err != nil {
		return nil, err
	}
	if err := checkLeasePlans(resp.Broken); err != nil {
		return nil, err
	}
	return resp.Broken, nil
}

// Rebalance implements API over the wire. Mutating; see Plan for context
// semantics.
func (c *Client) Rebalance(ctx context.Context) ([]RebalanceStep, error) {
	var resp wire.RebalanceResponse
	if err := c.call(ctx, wire.MethodRebalance, wire.RebalanceRequest{V: wire.Version}, &resp, true); err != nil {
		return nil, err
	}
	for _, st := range resp.Steps {
		if st.Result == nil {
			continue
		}
		if err := st.Result.Plan.Check(); err != nil {
			return nil, err
		}
	}
	return resp.Steps, nil
}

// FleetStats implements API over the wire. Idempotent: retried on
// transport and overload errors.
func (c *Client) FleetStats() (FleetStats, error) {
	var resp wire.FleetStatsResponse
	if err := c.call(context.Background(), wire.MethodFleetStats, wire.FleetStatsRequest{V: wire.Version}, &resp, false); err != nil {
		return FleetStats{}, err
	}
	if err := checkLeasePlans(resp.Stats.Leases); err != nil {
		return FleetStats{}, err
	}
	return resp.Stats, nil
}

// Plan implements API over the wire. Idempotent. The context's deadline
// crosses the wire and bounds the daemon-side search; cancellation
// abandons the local wait (the daemon's context expires with the
// deadline, not the cancel).
func (c *Client) Plan(ctx context.Context, job string, pool *Pool, obj Objective, cons Constraints) (PlanResult, error) {
	req := wire.PlanRequest{
		V: wire.Version, Job: job,
		Pool:        wire.FromPool(pool),
		Objective:   obj.String(),
		Constraints: wire.FromConstraints(cons),
	}
	var resp wire.PlanResponse
	if err := c.call(ctx, wire.MethodPlan, req, &resp, false); err != nil {
		return PlanResult{}, err
	}
	if err := resp.Result.Plan.Check(); err != nil {
		return PlanResult{}, err
	}
	return resp.Result.Result(), nil
}

// Replan implements API over the wire. Idempotent; see Plan for context
// semantics.
func (c *Client) Replan(ctx context.Context, job string, prev Plan, pool *Pool, obj Objective, cons Constraints) (PlanResult, error) {
	req := wire.ReplanRequest{
		V: wire.Version, Job: job,
		Prev:        wire.FromPlan(prev),
		Pool:        wire.FromPool(pool),
		Objective:   obj.String(),
		Constraints: wire.FromConstraints(cons),
	}
	var resp wire.PlanResponse
	if err := c.call(ctx, wire.MethodReplan, req, &resp, false); err != nil {
		return PlanResult{}, err
	}
	if err := resp.Result.Plan.Check(); err != nil {
		return PlanResult{}, err
	}
	return resp.Result.Result(), nil
}

// Simulate implements API over the wire. Idempotent.
func (c *Client) Simulate(job string, plan Plan) (Estimate, error) {
	req := wire.SimulateRequest{V: wire.Version, Job: job, Plan: wire.FromPlan(plan)}
	var resp wire.SimulateResponse
	if err := c.call(context.Background(), wire.MethodSimulate, req, &resp, false); err != nil {
		return Estimate{}, err
	}
	return resp.Estimate.Core(), nil
}

// CloseJob implements API over the wire. Mutating.
func (c *Client) CloseJob(job string) error {
	req := wire.CloseJobRequest{V: wire.Version, Job: job}
	var resp wire.CloseJobResponse
	return c.call(context.Background(), wire.MethodCloseJob, req, &resp, true)
}

// Stats implements API over the wire. Idempotent.
func (c *Client) Stats() (ServiceStats, error) {
	var resp wire.StatsResponse
	if err := c.call(context.Background(), wire.MethodStats, wire.StatsRequest{V: wire.Version}, &resp, false); err != nil {
		return ServiceStats{}, err
	}
	return resp.Stats, nil
}

// checkLeasePlans bounds the plan of every lease row in a reply (see
// wire.Plan.Check) before a caller expands one.
func checkLeasePlans(leases []LeaseInfo) error {
	for _, le := range leases {
		if err := le.Plan.Check(); err != nil {
			return err
		}
	}
	return nil
}

// ParseObjective resolves an objective name ("max-throughput", "min-cost")
// to the typed Objective — the names CLIs and wire messages carry.
func ParseObjective(s string) (Objective, error) { return core.ParseObjective(s) }
