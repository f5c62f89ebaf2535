// Package rpc is a minimal request/response message layer over TCP, the
// stand-in for the paper's gRPC control plane (§5.5 "topology broadcast
// (using grpc)"). A frame is a u32 length, a fixed binary header — the
// frame version byte, a wire code, the call id, the deadline budget and the
// lengths of the method and error strings — then those strings, then the
// JSON body, which passes through the frame untouched: each body is
// encoded once by its sender and decoded once by its receiver. Call and the
// server's replies use encoding/json; CallRaw leaves both bodies to its
// caller's codec. Both peers must share the frame version byte; a peer
// speaking any other framing loses its connection. Each request carries an
// id echoed by the response, so one connection multiplexes concurrent
// calls. Stdlib only.
//
// Shutdown is graceful: Server.Close stops accepting, lets every in-flight
// handler finish and flush its reply, answers requests that arrive during
// the drain with ErrServerClosed, and only then tears connections down.
// Client calls fail with typed errors — ErrClientClosed after a local
// Close, ErrServerClosed when the server refused the request during
// shutdown, ErrConnectionLost when the transport died mid-call,
// ErrOverloaded when the server shed the request — so callers can
// distinguish "retry" from "back off" from "stop".
//
// Deadlines propagate end to end: CallContext stamps the context's
// remaining budget in the request frame's header, the server wraps the
// handler's context with it, and deadline failures come back wire-coded so
// the caller sees context.DeadlineExceeded rather than an opaque string.
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"time"
)

// Typed call-failure errors; match with errors.Is.
var (
	// ErrClientClosed is returned by Call after the client's own Close, and
	// by calls pending when Close tears the connection down.
	ErrClientClosed = errors.New("rpc: client closed")
	// ErrServerClosed is returned for requests a shutting-down server
	// refused to dispatch.
	ErrServerClosed = errors.New("rpc: server closed")
	// ErrConnectionLost is returned when the transport died under a call
	// that had no reply yet, and by every call after that.
	ErrConnectionLost = errors.New("rpc: connection lost")
	// ErrOverloaded is returned when the server shed the request because
	// its wait queue was full. Handlers return errors wrapping it; the
	// wire code resurfaces it typed on the client, where it means "the
	// call never ran — back off and retry".
	ErrOverloaded = errors.New("rpc: server overloaded")
)

// Wire codes tag machine-readable error classes on reply frames, so the
// client surfaces typed errors rather than opaque strings. A frame carrying
// a code past codeDeadline is malformed.
const (
	// codeNone marks a success or a plain handler error.
	codeNone byte = iota
	// codeServerClosed marks a shutdown refusal.
	codeServerClosed
	// codeOverloaded marks a request shed by an overloaded server.
	codeOverloaded
	// codeDeadline marks a handler cut off by the request's own deadline.
	codeDeadline
)

// MaxFrame bounds a frame to keep a corrupt length prefix from allocating
// unbounded memory.
const MaxFrame = 64 << 20

// frameVersion opens every frame header; a peer speaking another framing
// fails the check and loses the connection.
const frameVersion = 0xB1

// headerLen is the fixed part of a frame after its length prefix: version,
// code, id (u64), timeout (i64), method length (u16), error length (u32).
const headerLen = 1 + 1 + 8 + 8 + 2 + 4

// drainTimeout bounds how long Close waits for in-flight replies to flush:
// a client that stopped reading would otherwise block a reply write — and
// with it the drain — forever. A var so tests can shorten it.
var drainTimeout = 10 * time.Second

// encodeFrame renders one frame: the u32 length of what follows, the fixed
// header, then the method, error and body bytes. The body is copied as is.
func encodeFrame(env envelope) ([]byte, error) {
	if len(env.Method) > math.MaxUint16 {
		return nil, fmt.Errorf("rpc: method name of %d bytes exceeds limit", len(env.Method))
	}
	n := headerLen + len(env.Method) + len(env.Err) + len(env.Body)
	if n > MaxFrame {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	frame := make([]byte, 4+n)
	binary.BigEndian.PutUint32(frame, uint32(n))
	h := frame[4:]
	h[0] = frameVersion
	h[1] = env.Code
	binary.BigEndian.PutUint64(h[2:], env.ID)
	binary.BigEndian.PutUint64(h[10:], uint64(env.TimeoutNS))
	binary.BigEndian.PutUint16(h[18:], uint16(len(env.Method)))
	binary.BigEndian.PutUint32(h[20:], uint32(len(env.Err)))
	off := headerLen
	off += copy(h[off:], env.Method)
	off += copy(h[off:], env.Err)
	copy(h[off:], env.Body)
	return frame, nil
}

// writeFrame writes one frame in a single Write.
func writeFrame(w io.Writer, env envelope) error {
	frame, err := encodeFrame(env)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// frameReader is what readFrame reads from: a bufio.Reader on a connection.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// readFrame reads one frame. The length prefix is checked against MaxFrame
// before the frame's buffer is allocated, and the returned body is a slice
// of that buffer.
func readFrame(r frameReader) (envelope, error) {
	var n uint32
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return envelope{}, err
		}
		n = n<<8 | uint32(b)
	}
	if n > MaxFrame {
		return envelope{}, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	if n < headerLen {
		return envelope{}, fmt.Errorf("rpc: frame of %d bytes is shorter than its header", n)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return envelope{}, err
	}
	return parseFrame(frame)
}

// parseFrame decodes a frame (without its length prefix). Method and Err
// are copied; Body aliases frame.
func parseFrame(frame []byte) (envelope, error) {
	if frame[0] != frameVersion {
		return envelope{}, fmt.Errorf("rpc: frame version %#x, want %#x", frame[0], frameVersion)
	}
	env := envelope{
		Code:      frame[1],
		ID:        binary.BigEndian.Uint64(frame[2:]),
		TimeoutNS: int64(binary.BigEndian.Uint64(frame[10:])),
	}
	if env.Code > codeDeadline {
		return envelope{}, fmt.Errorf("rpc: unknown wire code %d", env.Code)
	}
	ml := uint64(binary.BigEndian.Uint16(frame[18:]))
	el := uint64(binary.BigEndian.Uint32(frame[20:]))
	if ml+el > uint64(len(frame)-headerLen) {
		return envelope{}, fmt.Errorf("rpc: method (%d B) and error (%d B) overrun a %d-byte frame", ml, el, len(frame))
	}
	off := headerLen
	env.Method = string(frame[off : off+int(ml)])
	off += int(ml)
	env.Err = string(frame[off : off+int(el)])
	env.Body = frame[off+int(el):]
	return env, nil
}

// envelope is one wire message: a request (Method, Body, TimeoutNS) or a
// reply (Body, or Err and Code), matched by ID.
type envelope struct {
	ID     uint64
	Method string
	Body   json.RawMessage
	Err    string
	// Code tags machine-readable error classes (see codeServerClosed).
	Code byte
	// TimeoutNS is the caller's remaining deadline budget, carried as a
	// relative duration (absolute times don't survive clock skew) in the
	// request frame's header; the server bounds the handler's context with
	// it.
	TimeoutNS int64
}

// Handler serves one method: it receives the request context (carrying the
// caller's deadline, if any) and raw body, and returns the response value
// or an error.
type Handler func(ctx context.Context, body json.RawMessage) (any, error)

// Server dispatches incoming calls on a listener.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	conns    map[net.Conn]struct{}
	lis      net.Listener
	connWG   sync.WaitGroup
	closed   chan struct{}

	// reqMu guards closing and admission into reqWG: once closing is set no
	// new handler may start, so Close's reqWG.Wait() drains a fixed set.
	reqMu   sync.Mutex
	closing bool
	reqWG   sync.WaitGroup
}

// NewServer returns a server that owns the listener.
func NewServer(lis net.Listener) *Server {
	return &Server{
		handlers: map[string]Handler{},
		conns:    map[net.Conn]struct{}{},
		lis:      lis,
		closed:   make(chan struct{}),
	}
}

// Handle registers a method handler; it must be called before Serve.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Serve accepts connections until Close; it returns after the listener
// closes.
func (s *Server) Serve() {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		// Register under mu, and refuse once Close has begun: Close takes mu
		// after closing s.closed, so every registered conn is in its
		// snapshot and every connWG.Add is ordered before its Wait.
		s.mu.Lock()
		select {
		case <-s.closed:
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// admit registers one in-flight request, unless the server is draining.
func (s *Server) admit() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.closing {
		return false
	}
	s.reqWG.Add(1)
	return true
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	var wmu sync.Mutex
	w := bufio.NewWriter(conn)
	reply := func(env envelope) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := writeFrame(w, env); err == nil {
			w.Flush()
		}
	}
	for {
		req, err := readFrame(r)
		if err != nil {
			return
		}
		s.mu.RLock()
		h := s.handlers[req.Method]
		s.mu.RUnlock()
		if !s.admit() {
			// Shutting down: refuse instead of racing the drain, so the
			// pending client call unblocks with a typed error.
			reply(envelope{ID: req.ID, Err: ErrServerClosed.Error(), Code: codeServerClosed})
			continue
		}
		go func(req envelope) {
			defer s.reqWG.Done()
			if h == nil {
				reply(envelope{ID: req.ID, Err: fmt.Sprintf("rpc: unknown method %q", req.Method)})
				return
			}
			ctx := context.Background()
			if req.TimeoutNS > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNS))
				defer cancel()
			}
			out, err := h(ctx, req.Body)
			if err != nil {
				reply(envelope{ID: req.ID, Err: err.Error(), Code: errCode(err)})
				return
			}
			body, err := json.Marshal(out)
			if err != nil {
				reply(envelope{ID: req.ID, Err: err.Error()})
				return
			}
			reply(envelope{ID: req.ID, Body: body})
		}(req)
	}
}

// errCode maps a handler failure to its wire code (codeNone for plain
// errors), so typed error classes survive the string-typed error field.
func errCode(err error) byte {
	switch {
	case errors.Is(err, ErrOverloaded):
		return codeOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return codeDeadline
	}
	return codeNone
}

// Close stops accepting, drains in-flight handlers (their replies are
// flushed to the still-open connections), then tears connections down and
// waits for the connection goroutines. Requests arriving during the drain
// fail fast with ErrServerClosed. Close is idempotent.
func (s *Server) Close() {
	s.reqMu.Lock()
	if s.closing {
		s.reqMu.Unlock()
		return
	}
	s.closing = true
	s.reqMu.Unlock()

	close(s.closed)
	s.lis.Close()
	// Bound the drain: every in-flight reply must flush within drainTimeout
	// or fail with a deadline error, so a stalled client (one that stopped
	// reading, with a full TCP buffer) cannot wedge Close. All admitted
	// handlers run on conns registered before closing was set, so this
	// snapshot covers every write the drain waits on.
	deadline := time.Now().Add(drainTimeout)
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetWriteDeadline(deadline)
	}
	s.mu.Unlock()
	s.reqWG.Wait()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Client multiplexes calls over one connection.
type Client struct {
	conn net.Conn
	wmu  sync.Mutex
	w    *bufio.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan envelope
	err     error
}

// Dial connects to a server, blocking until the connection lands or the
// network gives up. Prefer DialTimeout for anything that must not hang on
// an unroutable address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// DialTimeout is Dial with a bound on connection establishment (0 means
// no bound, i.e. Dial).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient speaks the protocol over an established connection — the seam
// fault injectors and alternative transports plug into.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		w:       bufio.NewWriter(conn),
		pending: map[uint64]chan envelope{},
	}
	go c.readLoop()
	return c
}

// fail marks the client dead with a typed error (keeping the first cause)
// and unblocks every pending call by closing its channel.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
}

func (c *Client) readLoop() {
	r := bufio.NewReader(c.conn)
	for {
		env, err := readFrame(r)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnectionLost, err))
			return
		}
		c.mu.Lock()
		ch := c.pending[env.ID]
		delete(c.pending, env.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- env
		}
	}
}

// Call invokes method with req, decoding the response into resp (which may
// be nil for fire-and-check calls). After the transport dies or Close is
// called, Call fails fast with the typed cause (ErrClientClosed,
// ErrConnectionLost).
func (c *Client) Call(method string, req, resp any) error {
	return c.CallContext(context.Background(), method, req, resp)
}

// CallContext is Call with a per-call deadline: the context's remaining
// budget rides the request frame's header (the server bounds the handler with
// it), and a context that expires while the call is in flight abandons the
// reply and returns ctx.Err(). The connection stays usable — a late reply
// to an abandoned id is dropped by the read loop. A context that is already
// done never touches the wire.
func (c *Client) CallContext(ctx context.Context, method string, req, resp any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	reply, err := c.CallRaw(ctx, method, body)
	if err != nil || resp == nil {
		return err
	}
	return json.Unmarshal(reply, resp)
}

// CallRaw is CallContext for a caller with its own codec: body is the
// request's encoded body, sent as is, and the reply's body comes back
// undecoded (a slice of the reply frame, which the caller owns).
func (c *Client) CallRaw(ctx context.Context, method string, body []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	env := envelope{Method: method, Body: body}
	if dl, ok := ctx.Deadline(); ok {
		budget := time.Until(dl)
		if budget <= 0 {
			return nil, context.DeadlineExceeded
		}
		// The server gets 7/8 of the caller's budget: a handler that runs
		// to its deadline (e.g. degrading to an incumbent plan) still has
		// the remaining 1/8 for its reply to cross the wire before the
		// caller's own context abandons the call.
		env.TimeoutNS = (budget - budget/8).Nanoseconds()
	}

	ch := make(chan envelope, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	env.ID = id
	c.pending[id] = ch
	c.mu.Unlock()

	// A frame over the limits is the caller's failure; from here on, any
	// failure is the transport's, and poisons the connection.
	frame, err := encodeFrame(env)
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	c.wmu.Lock()
	_, err = c.w.Write(frame)
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		// A half-written frame has desynced the stream for every user of
		// the connection, so the whole client fails typed — unless Close or
		// the read loop got there first, whose cause wins.
		c.fail(fmt.Errorf("%w: write: %v", ErrConnectionLost, err))
		c.mu.Lock()
		delete(c.pending, id)
		err := c.err
		c.mu.Unlock()
		return nil, err
	}

	select {
	case env, ok := <-ch:
		if !ok {
			// The connection died (or Close ran) before a reply arrived.
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrConnectionLost
			}
			return nil, err
		}
		if err := replyErr(env); err != nil {
			return nil, err
		}
		return env.Body, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// replyErr surfaces a reply frame's error as a typed error, or nil.
func replyErr(env envelope) error {
	if env.Err == "" {
		return nil
	}
	switch env.Code {
	case codeServerClosed:
		return ErrServerClosed
	case codeOverloaded:
		return wrapCoded(env.Err, ErrOverloaded)
	case codeDeadline:
		return wrapCoded(env.Err, context.DeadlineExceeded)
	}
	return errors.New(env.Err)
}

// wrapCoded rebuilds a typed error from its wire string: the server-side
// message usually ends in the base error's own text (it wrapped the same
// sentinel), which is cut before re-wrapping so the text doesn't double.
func wrapCoded(msg string, base error) error {
	if msg == base.Error() {
		return base
	}
	if trimmed, ok := strings.CutSuffix(msg, ": "+base.Error()); ok {
		msg = trimmed
	}
	return fmt.Errorf("%s: %w", msg, base)
}

// Close tears the connection down; pending and subsequent calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return c.conn.Close()
}
