package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// jsonEraFrame is a request as peers spoke it before the binary header: a
// u32 length and a JSON envelope.
func jsonEraFrame(envelope string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(envelope))), envelope...)
}

func mustEncode(tb testing.TB, env envelope) []byte {
	tb.Helper()
	frame, err := encodeFrame(env)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// FuzzReadFrame: arbitrary bytes never panic the reader, never make it
// allocate for more than the frame its length prefix declares (itself
// bounded by MaxFrame), and every frame it accepts re-encodes to the bytes
// it was read from.
func FuzzReadFrame(f *testing.F) {
	req := mustEncode(f, envelope{ID: 9, Method: "replan", Body: json.RawMessage(`{"job":"a"}`), TimeoutNS: 5e8})
	f.Add(req)
	f.Add(jsonEraFrame(`{"id":1,"method":"echo"}`))
	f.Add(req[:4+headerLen/2])                             // truncated header
	f.Add([]byte{0, 0, 0, headerLen - 1, frameVersion, 0}) // declared shorter than a header
	overrunMethod := bytes.Clone(req)
	binary.BigEndian.PutUint16(overrunMethod[4+18:], 0xffff)
	f.Add(overrunMethod)
	overrunErr := bytes.Clone(req)
	binary.BigEndian.PutUint32(overrunErr[4+20:], uint32(len(req)))
	f.Add(overrunErr)
	unknownCode := bytes.Clone(req)
	unknownCode[4+1] = codeDeadline + 1
	f.Add(unknownCode)
	f.Add(mustEncode(f, envelope{ID: 2, Method: "ping"})) // zero-length body
	for _, code := range []byte{codeServerClosed, codeOverloaded, codeDeadline} {
		f.Add(mustEncode(f, envelope{ID: 3, Err: "refused", Code: code}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var declared uint64
		if len(data) >= 4 {
			declared = uint64(binary.BigEndian.Uint32(data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env, err := readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The frame buffer plus copies of its two strings, with room for
		// size-class rounding and an error value.
		bound := 2*(declared+uint64(len(env.Method)+len(env.Err))) + 16<<10
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("readFrame allocated %d bytes for a %d-byte frame", got, declared)
		}
		if err != nil {
			return
		}
		if declared > MaxFrame {
			t.Fatalf("accepted a %d-byte frame past MaxFrame", declared)
		}
		re, err := encodeFrame(env)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if want := data[:4+declared]; !bytes.Equal(re, want) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", re, want)
		}
	})
}

// TestFrameCodecAllocs pins the codec's allocations: encodeFrame makes the
// frame and nothing else; readFrame makes the frame buffer and one string
// per non-empty string field, and hands the body out as a slice of that
// buffer rather than a copy.
func TestFrameCodecAllocs(t *testing.T) {
	body := json.RawMessage(`{"job":"a","pool":[1,2,3]}`)
	req := envelope{ID: 7, Method: "replan", Body: body, TimeoutNS: 1e9}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := encodeFrame(req); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("encodeFrame: %v allocs, want 1", got)
	}
	var rd bytes.Reader
	for _, tc := range []struct {
		name string
		env  envelope
		max  float64
	}{
		{"request", req, 2},
		{"reply", envelope{ID: 7, Body: body}, 1},
		{"error", envelope{ID: 7, Err: "queue full", Code: codeOverloaded}, 2},
	} {
		frame := mustEncode(t, tc.env)
		if got := testing.AllocsPerRun(100, func() {
			rd.Reset(frame)
			if _, err := readFrame(&rd); err != nil {
				t.Fatal(err)
			}
		}); got > tc.max {
			t.Errorf("readFrame(%s): %v allocs, want ≤ %v", tc.name, got, tc.max)
		}
	}
	frame := mustEncode(t, req)[4:]
	env, err := parseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Body) != string(body) || &env.Body[0] != &frame[len(frame)-len(body)] {
		t.Error("parsed body is not a slice of the frame buffer")
	}
}

// TestEncodeFrameRejectsLongMethod: a method name its u16 length field
// cannot carry is refused, not framed corruptly.
func TestEncodeFrameRejectsLongMethod(t *testing.T) {
	if _, err := encodeFrame(envelope{Method: strings.Repeat("m", math.MaxUint16+1)}); err == nil {
		t.Fatal("a 64 KiB method name was framed")
	}
}

// TestJSONEraPeerLosesConnection: a request framed as JSON, as peers spoke
// before the binary header, closes that connection unanswered, and the
// server keeps serving well-formed clients.
func TestJSONEraPeerLosesConnection(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(jsonEraFrame(`{"id":1,"method":"echo","body":"hi"}`)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	var ne net.Error
	if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("JSON-era request: read %d bytes, err %v; want the connection closed unanswered", n, err)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out string
	if err := c.Call("echo", "still here", &out); err != nil || out != "still here" {
		t.Fatalf("well-formed client after a JSON-era peer: %q, %v", out, err)
	}
}

// TestMalformedReplyFailsClient: a reply whose header does not parse fails
// the pending call with ErrConnectionLost, and every later call fails fast
// with it.
func TestMalformedReplyFailsClient(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(frame []byte)
		want    string
	}{
		{"version", func(frame []byte) { frame[4] = '{' }, "frame version"},
		{"code", func(frame []byte) { frame[4+1] = codeDeadline + 1 }, "wire code"},
		{"overrun", func(frame []byte) { binary.BigEndian.PutUint32(frame[4+20:], 1<<20) }, "overrun"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hold, served := make(chan struct{}), make(chan struct{})
			defer func() { close(hold); lis.Close(); <-served }()
			go func() {
				defer close(served)
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				req, err := readFrame(bufio.NewReader(conn))
				if err != nil {
					return
				}
				frame, _ := encodeFrame(envelope{ID: req.ID, Body: json.RawMessage(`"ok"`)})
				tc.corrupt(frame)
				conn.Write(frame)
				<-hold // keep the connection open: the header, not EOF, must fail the client
			}()
			c, err := DialTimeout(lis.Addr().String(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Call("echo", "x", nil)
			if !errors.Is(err, ErrConnectionLost) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("call answered by a malformed header = %v, want ErrConnectionLost (%s)", err, tc.want)
			}
			if err := c.Call("echo", "x", nil); !errors.Is(err, ErrConnectionLost) {
				t.Fatalf("later call = %v, want ErrConnectionLost", err)
			}
		})
	}
}
