package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(lis)
	s.Handle("echo", func(_ context.Context, body json.RawMessage) (any, error) {
		var msg string
		if err := json.Unmarshal(body, &msg); err != nil {
			return nil, err
		}
		return msg, nil
	})
	s.Handle("add", func(_ context.Context, body json.RawMessage) (any, error) {
		var in [2]int
		if err := json.Unmarshal(body, &in); err != nil {
			return nil, err
		}
		return in[0] + in[1], nil
	})
	s.Handle("fail", func(context.Context, json.RawMessage) (any, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	go s.Serve()
	t.Cleanup(s.Close)
	return s, lis.Addr().String()
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out string
	if err := c.Call("echo", "hello", &out); err != nil {
		t.Fatal(err)
	}
	if out != "hello" {
		t.Errorf("echo = %q", out)
	}
	var sum int
	if err := c.Call("add", [2]int{3, 4}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 7 {
		t.Errorf("add = %d", sum)
	}
}

// TestCallRaw: CallRaw sends its body byte for byte and hands the reply's
// body back undecoded; errors stay typed, and a done context never reaches
// the wire.
func TestCallRaw(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.CallRaw(context.Background(), "add", []byte(" [3, 4]"))
	if err != nil || string(reply) != "7" {
		t.Fatalf("CallRaw(add) = %q, %v", reply, err)
	}
	if reply, err := c.CallRaw(context.Background(), "fail", []byte("null")); err == nil || reply != nil {
		t.Errorf("CallRaw(fail) = %q, %v", reply, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CallRaw(ctx, "add", []byte("[1,2]")); !errors.Is(err, context.Canceled) {
		t.Errorf("CallRaw with a done context = %v", err)
	}
}

func TestServerError(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("fail", nil, nil); err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Errorf("want handler error, got %v", err)
	}
	if err := c.Call("nope", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("want unknown-method error, got %v", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sum int
			if err := c.Call("add", [2]int{i, i}, &sum); err != nil {
				errs <- err
				return
			}
			if sum != 2*i {
				errs <- fmt.Errorf("call %d: got %d", i, sum)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestGracefulCloseDrainsInFlight(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(lis)
	block := make(chan struct{})
	entered := make(chan struct{})
	s.Handle("hang", func(context.Context, json.RawMessage) (any, error) {
		close(entered)
		<-block
		return nil, nil
	})
	go s.Serve()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Call("hang", nil, nil) }()
	<-entered
	// Graceful shutdown drains the in-flight handler: Close must not return
	// while it is still blocked, and the pending call gets its real reply.
	started := make(chan struct{})
	closed := make(chan struct{})
	go func() {
		close(started)
		s.Close()
		close(closed)
	}()
	<-started
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("drained call must receive its reply, got %v", err)
	}
	<-closed
	// The drain's last act tears connections down: subsequent calls fail
	// fast with the typed connection-loss error.
	waitClientDead(t, c)
	if err := c.Call("hang", nil, nil); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("call after server shutdown = %v, want ErrConnectionLost", err)
	}
}

// waitClientDead blocks until the client's read loop has observed the torn
// connection (the tear-down is asynchronous from the client's view).
func waitClientDead(t *testing.T, c *Client) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		dead := c.err != nil
		c.mu.Unlock()
		if dead {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("client never noticed the lost connection")
}

// TestCallAfterClientClose: the call-after-close regression — Close fails
// pending calls and every later call with the typed ErrClientClosed.
func TestCallAfterClientClose(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(lis)
	block := make(chan struct{})
	s.Handle("hang", func(context.Context, json.RawMessage) (any, error) {
		<-block
		return nil, nil
	})
	go s.Serve()
	defer s.Close()
	// LIFO: the handler must unblock before Close starts its drain.
	defer close(block)
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pending := make(chan error, 1)
	go func() { pending <- c.Call("hang", nil, nil) }()
	waitPending(t, c)
	c.Close()
	if err := <-pending; !errors.Is(err, ErrClientClosed) {
		t.Errorf("pending call after Close = %v, want ErrClientClosed", err)
	}
	if err := c.Call("hang", nil, nil); !errors.Is(err, ErrClientClosed) {
		t.Errorf("call after Close = %v, want ErrClientClosed", err)
	}
}

// waitPending blocks until the client has one registered in-flight call.
func waitPending(t *testing.T, c *Client) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("call never became pending")
}

// TestRequestDuringDrainRefusedTyped: a request that reaches the server
// after Close started (while an earlier handler is still draining) is
// refused with ErrServerClosed instead of hanging or dying opaquely.
func TestRequestDuringDrainRefusedTyped(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(lis)
	block := make(chan struct{})
	entered := make(chan struct{})
	s.Handle("hang", func(context.Context, json.RawMessage) (any, error) {
		close(entered)
		<-block
		return "done", nil
	})
	go s.Serve()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := make(chan error, 1)
	go func() { first <- c.Call("hang", nil, nil) }()
	<-entered

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// Wait for Close to flip the draining flag, then issue a second call on
	// the still-open connection: it must be refused with the typed error.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s.reqMu.Lock()
		closing := s.closing
		s.reqMu.Unlock()
		if closing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	second := make(chan error, 1)
	go func() { second <- c.Call("hang", nil, nil) }()
	if err := <-second; !errors.Is(err, ErrServerClosed) {
		t.Errorf("call during drain = %v, want ErrServerClosed", err)
	}
	close(block)
	if err := <-first; err != nil {
		t.Errorf("drained call = %v, want success", err)
	}
	<-closed
}

// TestAbruptConnectionLossFailsPending: a transport that dies without a
// graceful shutdown fails pending calls with ErrConnectionLost.
func TestAbruptConnectionLossFailsPending(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Call("anything", nil, nil); !errors.Is(err, ErrConnectionLost) {
		t.Errorf("call on severed transport = %v, want ErrConnectionLost", err)
	}
}

// TestServerCloseIdempotent: double Close must not panic or deadlock.
func TestServerCloseIdempotent(t *testing.T) {
	s, _ := startServer(t)
	s.Close()
	s.Close()
}

func TestFrameLimit(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := strings.Repeat("x", MaxFrame+1)
	if err := c.Call("echo", big, nil); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
}

// TestCloseUnblocksStalledClientDrain: a client that sends a request and
// then stops reading fills its TCP receive buffer, so the in-flight reply
// write blocks. Close must still return — the drain is bounded by
// drainTimeout, after which the stalled write fails and the handler's
// reqWG slot frees.
func TestCloseUnblocksStalledClientDrain(t *testing.T) {
	old := drainTimeout
	drainTimeout = 200 * time.Millisecond
	defer func() { drainTimeout = old }()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(lis)
	// A reply far larger than any loopback socket buffer, so the write
	// cannot complete until the client reads — which it never does.
	big := strings.Repeat("x", 16<<20)
	handlerDone := make(chan struct{})
	s.Handle("big", func(context.Context, json.RawMessage) (any, error) {
		close(handlerDone)
		return big, nil
	})
	go s.Serve()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, envelope{ID: 1, Method: "big"}); err != nil {
		t.Fatal(err)
	}
	<-handlerDone // the reply write is in flight (and about to block)

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged on a client that stopped reading")
	}
}

// TestDialTimeoutNonRoutable: rpc.Dial against a non-routable address
// blocks until the OS gives up (minutes); DialTimeout must fail within the
// caller's bound instead.
func TestDialTimeoutNonRoutable(t *testing.T) {
	// 203.0.113.0/24 is TEST-NET-3 (RFC 5737): reserved, never routed. A
	// sandbox with a transparent proxy may complete any handshake; detect
	// that and skip — the bound is only observable against a blackhole.
	const blackhole = "203.0.113.1:7477"
	if c, err := net.DialTimeout("tcp", blackhole, 250*time.Millisecond); err == nil {
		c.Close()
		t.Skip("environment routes TEST-NET-3 (transparent proxy); cannot observe a dial timeout")
	}
	start := time.Now()
	_, err := DialTimeout(blackhole, 100*time.Millisecond)
	if err == nil {
		t.Fatal("dial to a non-routable address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DialTimeout took %v, want ~100ms", elapsed)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		// Some environments refuse instantly instead of timing out; either
		// way the call must not hang, which the elapsed check proved.
		t.Logf("non-timeout dial failure (acceptable): %v", err)
	}
}

// TestCallContextDeadlinePropagates: the context budget rides the request
// envelope, bounds the handler's own context, and the deadline failure
// comes back typed as context.DeadlineExceeded — end to end.
func TestCallContextDeadlinePropagates(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(lis)
	sawDeadline := make(chan bool, 1)
	s.Handle("wait", func(ctx context.Context, _ json.RawMessage) (any, error) {
		_, ok := ctx.Deadline()
		sawDeadline <- ok
		<-ctx.Done()
		return nil, fmt.Errorf("search cut off: %w", ctx.Err())
	})
	go s.Serve()
	defer s.Close()
	c, err := DialTimeout(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	err = c.CallContext(ctx, "wait", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline call = %v, want context.DeadlineExceeded", err)
	}
	if !<-sawDeadline {
		t.Fatal("handler context carried no deadline")
	}
	// The connection survives an expired call: the next call works.
	s.Handle("ok", func(context.Context, json.RawMessage) (any, error) { return "fine", nil })
	var out string
	if err := c.Call("ok", nil, &out); err != nil || out != "fine" {
		t.Fatalf("call after expired call: %q, %v", out, err)
	}
	// An already-expired context never touches the wire.
	expired, cancel2 := context.WithTimeout(context.Background(), -time.Second)
	defer cancel2()
	if err := c.CallContext(expired, "ok", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pre-expired call = %v, want context.DeadlineExceeded", err)
	}
}

// TestOverloadedCodeRoundTrip: a handler error wrapping ErrOverloaded is
// coded on the wire and comes back errors.Is-matchable, with the message
// intact and the sentinel text not doubled.
func TestOverloadedCodeRoundTrip(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(lis)
	s.Handle("shed", func(context.Context, json.RawMessage) (any, error) {
		return nil, fmt.Errorf("planner queue full (8 waiting): %w", ErrOverloaded)
	})
	go s.Serve()
	defer s.Close()
	c, err := DialTimeout(lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("shed", nil, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed call = %v, want ErrOverloaded", err)
	}
	want := "planner queue full (8 waiting): rpc: server overloaded"
	if err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}
}

// TestWriteFailureTypedConnectionLost: a call whose request write fails
// (dead socket) surfaces ErrConnectionLost, not a raw syscall error — the
// class retry layers key on.
func TestWriteFailureTypedConnectionLost(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.conn.Close() // sever the transport under the client
	// Depending on timing either the write or the read loop notices first;
	// both must converge on the typed error.
	for i := 0; i < 3; i++ {
		if err := c.Call("echo", "x", nil); !errors.Is(err, ErrConnectionLost) {
			t.Fatalf("call %d on severed conn = %v, want ErrConnectionLost", i, err)
		}
	}
}

// writeFailConn fails every write while its reads block, so the write
// path, not the read loop, is the one that sees the transport die.
type writeFailConn struct{ net.Conn }

func (writeFailConn) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestWriteFailurePoisonsClient: a failed request write fails that call and
// every later one with ErrConnectionLost, deterministically on the write
// path.
func TestWriteFailurePoisonsClient(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	c := NewClient(writeFailConn{local})
	defer c.Close()
	err := c.Call("echo", "x", nil)
	if !errors.Is(err, ErrConnectionLost) || !strings.Contains(err.Error(), "write: broken pipe") {
		t.Fatalf("call with a failing write = %v, want ErrConnectionLost from the write", err)
	}
	if err := c.Call("echo", "x", nil); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("later call = %v, want ErrConnectionLost", err)
	}
}

// chanListener hands out the conns sent on it. Its Close does not unblock
// Accept, so a test can deliver a conn after the server's Close returned.
type chanListener struct{ conns chan net.Conn }

func (l chanListener) Accept() (net.Conn, error) { return <-l.conns, nil }
func (chanListener) Close() error                { return nil }
func (chanListener) Addr() net.Addr              { return &net.TCPAddr{} }

// TestConnAcceptedAfterCloseIsRefused: a conn the listener hands over once
// Close has begun is closed at once, not served outside the drain.
func TestConnAcceptedAfterCloseIsRefused(t *testing.T) {
	lis := chanListener{conns: make(chan net.Conn)}
	s := NewServer(lis)
	served := make(chan struct{})
	go func() { s.Serve(); close(served) }()
	s.Close()
	local, remote := net.Pipe()
	defer remote.Close()
	lis.conns <- local
	<-served
	remote.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := remote.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read from a conn accepted after Close = %v, want io.EOF", err)
	}
}

// TestWrapCoded covers the wire-string reassembly corner cases.
func TestWrapCoded(t *testing.T) {
	if err := wrapCoded(ErrOverloaded.Error(), ErrOverloaded); err != ErrOverloaded {
		t.Fatalf("bare sentinel = %v", err)
	}
	err := wrapCoded("ctx: "+ErrOverloaded.Error(), ErrOverloaded)
	if !errors.Is(err, ErrOverloaded) || err.Error() != "ctx: rpc: server overloaded" {
		t.Fatalf("suffix trim = %q", err)
	}
	err = wrapCoded("unrelated text", ErrOverloaded)
	if !errors.Is(err, ErrOverloaded) || err.Error() != "unrelated text: rpc: server overloaded" {
		t.Fatalf("plain wrap = %q", err)
	}
}
