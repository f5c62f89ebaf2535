package sailor

// Server hosts a Service over internal/rpc — the transport cmd/sailor-serve
// exposes and Client speaks. Each rpc frame is a binary header (frame
// version byte, wire code, call id, deadline, method and error lengths)
// followed by a JSON body; both peers must share the frame version byte.
// Every method body is a versioned wire message, read by wire.Decode, which
// refuses a version mismatch before any work happens.

import (
	"context"
	"encoding/json"
	"net"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// Server exposes a Service on a listener.
type Server struct {
	svc *Service
	rpc *rpc.Server
}

// NewServer wraps a Service in an rpc dispatcher owning the listener.
// Call Serve to start accepting and Close to shut down gracefully
// (in-flight requests drain; queued client calls fail with a typed error).
func NewServer(lis net.Listener, svc *Service) *Server {
	s := &Server{svc: svc, rpc: rpc.NewServer(lis)}
	s.rpc.Handle(wire.MethodOpenJob, s.openJob)
	s.rpc.Handle(wire.MethodPlan, s.plan)
	s.rpc.Handle(wire.MethodReplan, s.replan)
	s.rpc.Handle(wire.MethodSimulate, s.simulate)
	s.rpc.Handle(wire.MethodCloseJob, s.closeJob)
	s.rpc.Handle(wire.MethodStats, s.stats)
	s.rpc.Handle(wire.MethodSetFleet, s.setFleet)
	s.rpc.Handle(wire.MethodFleetEvent, s.fleetEvent)
	s.rpc.Handle(wire.MethodRebalance, s.rebalance)
	s.rpc.Handle(wire.MethodFleetStats, s.fleetStats)
	return s
}

// Serve accepts connections until Close; it returns after the listener
// closes.
func (s *Server) Serve() { s.rpc.Serve() }

// Close drains in-flight requests and tears the listener down.
func (s *Server) Close() { s.rpc.Close() }

// Addr returns the listen address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.rpc.Addr() }

// Service returns the hosted service (for stats or in-process calls).
func (s *Server) Service() *Service { return s.svc }

func (s *Server) openJob(_ context.Context, body json.RawMessage) (any, error) {
	var req wire.OpenJobRequest
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	gpus := make([]GPUType, len(req.GPUs))
	for i, g := range req.GPUs {
		gpus[i] = GPUType(g)
	}
	if err := s.svc.OpenJob(req.Job, req.Model.Config(), gpus, req.Priority); err != nil {
		return nil, err
	}
	return wire.OpenJobResponse{V: wire.Version}, nil
}

func (s *Server) setFleet(_ context.Context, body json.RawMessage) (any, error) {
	var req wire.SetFleetRequest
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	if err := s.svc.SetFleet(req.Capacity.Cluster(), req.JobCapGPUs); err != nil {
		return nil, err
	}
	return wire.SetFleetResponse{V: wire.Version}, nil
}

func (s *Server) fleetEvent(_ context.Context, body json.RawMessage) (any, error) {
	var req wire.FleetEventRequest
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	broken, err := s.svc.FleetEvent(req.Event.Trace())
	if err != nil {
		return nil, err
	}
	return wire.FleetEventResponse{V: wire.Version, Broken: broken}, nil
}

func (s *Server) rebalance(ctx context.Context, body json.RawMessage) (any, error) {
	var req wire.RebalanceRequest
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	steps, err := s.svc.Rebalance(ctx)
	if err != nil {
		return nil, err
	}
	return wire.RebalanceResponse{V: wire.Version, Steps: steps}, nil
}

func (s *Server) fleetStats(_ context.Context, body json.RawMessage) (any, error) {
	var req wire.FleetStatsRequest
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	st, err := s.svc.FleetStats()
	if err != nil {
		return nil, err
	}
	return wire.FleetStatsResponse{V: wire.Version, Stats: st}, nil
}

func (s *Server) plan(ctx context.Context, body json.RawMessage) (any, error) {
	var req wire.PlanRequest
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	obj, err := core.ParseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	res, err := s.svc.Plan(ctx, req.Job, req.Pool.Cluster(), obj, req.Constraints.Core())
	if err != nil {
		return nil, err
	}
	return wire.PlanResponse{V: wire.Version, Result: wire.FromResult(res)}, nil
}

func (s *Server) replan(ctx context.Context, body json.RawMessage) (any, error) {
	var req wire.ReplanRequest
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	obj, err := core.ParseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	if err := req.Prev.Check(); err != nil {
		return nil, err
	}
	res, err := s.svc.Replan(ctx, req.Job, req.Prev.Core(), req.Pool.Cluster(), obj, req.Constraints.Core())
	if err != nil {
		return nil, err
	}
	return wire.PlanResponse{V: wire.Version, Result: wire.FromResult(res)}, nil
}

func (s *Server) simulate(_ context.Context, body json.RawMessage) (any, error) {
	var req wire.SimulateRequest
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	if err := req.Plan.Check(); err != nil {
		return nil, err
	}
	est, err := s.svc.Simulate(req.Job, req.Plan.Core())
	if err != nil {
		return nil, err
	}
	return wire.SimulateResponse{V: wire.Version, Estimate: wire.FromEstimate(est)}, nil
}

func (s *Server) closeJob(_ context.Context, body json.RawMessage) (any, error) {
	var req wire.CloseJobRequest
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	if err := s.svc.CloseJob(req.Job); err != nil {
		return nil, err
	}
	return wire.CloseJobResponse{V: wire.Version}, nil
}

func (s *Server) stats(_ context.Context, body json.RawMessage) (any, error) {
	var req wire.StatsRequest
	if err := wire.Decode(body, &req); err != nil {
		return nil, err
	}
	st, err := s.svc.Stats()
	if err != nil {
		return nil, err
	}
	return wire.StatsResponse{V: wire.Version, Stats: st}, nil
}
