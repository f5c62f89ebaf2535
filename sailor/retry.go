package sailor

// The client's resilience layer: typed-error classification, capped
// exponential backoff with deterministic seeded jitter, and automatic
// re-dial. Only errors that are provably transport- or load-shaped retry
// — rpc.ErrConnectionLost (the conn died mid-call), rpc.ErrServerClosed
// (graceful shutdown; the daemon restarts or a peer takes over), and
// ErrOverloaded (the planner queue shed the request; back off and come
// back). Application errors, version mismatches, and the caller's own
// deadline never retry. Idempotent reads (Plan, Replan, Simulate, Stats,
// FleetStats) retry by default; mutating calls (OpenJob, CloseJob,
// SetFleet, FleetEvent, Rebalance) retry only when the caller opts in
// with RetryPolicy.RetryMutating, because a retry of a mutation that was
// applied before its reply was lost applies it twice.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// RetryPolicy tunes the client's retry loop. The zero value is a working
// default: 4 attempts, 25ms base backoff doubling to a 2s cap, seed 1,
// mutating calls not retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call, first included
	// (0 = 4; 1 = never retry).
	MaxAttempts int
	// BaseBackoff is the pre-jitter delay before the first retry; it
	// doubles each attempt (0 = 25ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the pre-jitter delay (0 = 2s).
	MaxBackoff time.Duration
	// Seed drives the jitter: each backoff sleeps a duration drawn
	// uniformly from [d/2, d) by a client-local seeded source, so a
	// client's retry timing replays exactly (0 = 1).
	Seed uint64
	// RetryMutating opts mutating calls (OpenJob, CloseJob, SetFleet,
	// FleetEvent, Rebalance) into the retry loop. Off by default: a
	// mutation whose reply was lost may have been applied, and retrying
	// it re-applies it. Turn this on only when the workload makes every
	// mutation idempotent (or the caller reconciles duplicates).
	RetryMutating bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// DialConfig tunes DialWith. The zero value is a working default.
type DialConfig struct {
	// Timeout bounds each dial — the eager one in DialWith and every
	// re-dial the retry loop performs (0 = 10s).
	Timeout time.Duration
	// Retry is the client's retry policy.
	Retry RetryPolicy
	// Dialer, when set, replaces the TCP dialer — the seam fault
	// injectors and in-memory transports plug into. The returned conn is
	// driven by an rpc.Client; Timeout is the caller's to honor.
	Dialer func(addr string) (net.Conn, error)
}

func (c DialConfig) withDefaults() DialConfig {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// Dial connects to a sailor-serve daemon at addr (host:port) with the
// default DialConfig.
func Dial(addr string) (*Client, error) { return DialWith(addr, DialConfig{}) }

// DialWith connects to a sailor-serve daemon at addr. The dial itself is
// eager and does not retry — a daemon that is down fails fast — but every
// call on the returned client runs under cfg.Retry, re-dialing a died
// connection between attempts.
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{addr: addr, cfg: cfg, rng: rand.New(rand.NewSource(int64(cfg.Retry.Seed)))}
	rc, err := c.dialRPC()
	if err != nil {
		return nil, fmt.Errorf("sailor: dial %s: %w", addr, err)
	}
	c.rpc = rc
	return c, nil
}

// retryable reports whether an error is transport- or load-shaped: the
// classes that a fresh attempt (on a fresh connection, after backoff) can
// plausibly cure.
func retryable(err error) bool {
	return errors.Is(err, rpc.ErrConnectionLost) ||
		errors.Is(err, rpc.ErrServerClosed) ||
		errors.Is(err, rpc.ErrOverloaded)
}

// dialRPC performs one dial attempt through the configured dialer.
func (c *Client) dialRPC() (*rpc.Client, error) {
	if c.cfg.Dialer != nil {
		nc, err := c.cfg.Dialer(c.addr)
		if err != nil {
			return nil, err
		}
		return rpc.NewClient(nc), nil
	}
	return rpc.DialTimeout(c.addr, c.cfg.Timeout)
}

// conn returns the live rpc client, re-dialing if the previous connection
// was dropped. A failed re-dial comes back wrapped as ErrConnectionLost,
// so the retry loop classifies it as retryable and backs off.
func (c *Client) conn() (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("sailor: client is closed")
	}
	if c.rpc != nil {
		return c.rpc, nil
	}
	rc, err := c.dialRPC()
	if err != nil {
		return nil, fmt.Errorf("sailor: redial %s: %w (%v)", c.addr, rpc.ErrConnectionLost, err)
	}
	c.rpc = rc
	return rc, nil
}

// drop discards a died connection so the next attempt re-dials. The
// pointer comparison keeps a slow call from dropping a successor
// connection a concurrent call already established.
func (c *Client) drop(rc *rpc.Client) {
	c.mu.Lock()
	if c.rpc == rc {
		c.rpc = nil
	}
	c.mu.Unlock()
	rc.Close()
}

// backoff returns the jittered sleep before retry number attempt (1 for
// the first retry): the capped exponential d = min(base<<(attempt-1),
// max), jittered into [d/2, d) by the client's seeded source.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.Retry.BaseBackoff << (attempt - 1)
	if d > c.cfg.Retry.MaxBackoff || d <= 0 {
		d = c.cfg.Retry.MaxBackoff
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	c.mu.Lock()
	j := half + time.Duration(c.rng.Int63n(int64(half)))
	c.mu.Unlock()
	return j
}

// call is the retry loop every API method routes through. It encodes req
// once, so every attempt sends the same bytes, and decodes the reply into
// resp with wire's decoder, which checks its version. Idempotent calls
// retry on retryable errors up to MaxAttempts; mutating calls return the
// first error unless the policy opts them in.
func (c *Client) call(ctx context.Context, method string, req any, resp wire.Message, mutating bool) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	pol := c.cfg.Retry
	for attempt := 1; ; attempt++ {
		rc, err := c.conn()
		if err == nil {
			var reply []byte
			if reply, err = rc.CallRaw(ctx, method, body); err == nil {
				return wire.Decode(reply, resp)
			}
			if errors.Is(err, rpc.ErrConnectionLost) || errors.Is(err, rpc.ErrServerClosed) {
				c.drop(rc)
			}
		}
		if !retryable(err) || (mutating && !pol.RetryMutating) {
			return err
		}
		if attempt >= pol.MaxAttempts {
			return fmt.Errorf("sailor: %s failed after %d attempts: %w", method, attempt, err)
		}
		select {
		case <-time.After(c.backoff(attempt)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
