package chaos

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
)

// sched builds a valid schedule around the given faults.
func sched(faults ...Rule) *Schedule {
	return &Schedule{Name: "test", Seed: 7, Faults: faults}
}

func mustInjector(t *testing.T, s *Schedule) *Injector {
	t.Helper()
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	return in
}

// tcpPair returns a connected loopback pair (client, server).
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := lis.Accept()
		ch <- res{c, err}
	}()
	client, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

func TestScheduleRoundTrip(t *testing.T) {
	s := &Schedule{
		Name:        "storm",
		Description: "cuts and journal faults",
		Seed:        42,
		Faults: []Rule{
			{ID: "cut-1", Target: TargetConn, Conn: 1, Nth: 3, Action: ActionCut, OffsetBytes: 5},
			{ID: "refuse-1", Target: TargetListener, Nth: 2, Action: ActionRefuse},
			{ID: "j-fail", Target: TargetJournal, Nth: 4, Count: 2, Action: ActionFail, OffsetBytes: -1},
			{ID: "slow", Target: TargetConn, Side: SideServer, Conn: 2, Op: OpRead, Nth: 1, Action: ActionDelay, DelayMS: 3},
		},
	}
	doc, err := Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(doc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	// Normalization filled defaults.
	if got.Faults[0].Side != SideClient || got.Faults[0].Op != OpWrite || got.Faults[0].Count != 1 {
		t.Fatalf("conn rule not normalized: %+v", got.Faults[0])
	}
	if got.Faults[1].Op != OpAccept || got.Faults[2].Op != OpAppend {
		t.Fatalf("default ops not filled: %+v %+v", got.Faults[1], got.Faults[2])
	}
	doc2, err := Marshal(got)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if !bytes.Equal(doc, doc2) {
		t.Fatalf("canonical encoding not a fixed point:\n%s\nvs\n%s", doc, doc2)
	}
}

func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
		want string
	}{
		{"no name", &Schedule{}, "no name"},
		{"no id", sched(Rule{Target: TargetConn, Conn: 1, Nth: 1, Action: ActionCut}), "no id"},
		{"dup id", sched(
			Rule{ID: "a", Target: TargetConn, Conn: 1, Nth: 1, Action: ActionCut},
			Rule{ID: "a", Target: TargetConn, Conn: 2, Nth: 1, Action: ActionCut},
		), "duplicate"},
		{"bad nth", sched(Rule{ID: "a", Target: TargetConn, Conn: 1, Nth: 0, Action: ActionCut}), "1-based"},
		{"bad count", sched(Rule{ID: "a", Target: TargetConn, Conn: 1, Nth: 1, Count: -2, Action: ActionCut}), "negative count"},
		{"bad offset", sched(Rule{ID: "a", Target: TargetConn, Conn: 1, Nth: 1, Action: ActionCut, OffsetBytes: -2}), "offset_bytes"},
		{"bad target", sched(Rule{ID: "a", Target: "disk", Nth: 1, Action: ActionCut}), "target"},
		{"bad side", sched(Rule{ID: "a", Target: TargetConn, Side: "middle", Conn: 1, Nth: 1, Action: ActionCut}), "side"},
		{"no conn idx", sched(Rule{ID: "a", Target: TargetConn, Nth: 1, Action: ActionCut}), "conn 0"},
		{"bad conn op", sched(Rule{ID: "a", Target: TargetConn, Conn: 1, Op: OpAccept, Nth: 1, Action: ActionCut}), "op"},
		{"bad conn action", sched(Rule{ID: "a", Target: TargetConn, Conn: 1, Nth: 1, Action: ActionRefuse}), "action"},
		{"listener with conn", sched(Rule{ID: "a", Target: TargetListener, Conn: 1, Nth: 1, Action: ActionRefuse}), "no side or conn"},
		{"listener bad op", sched(Rule{ID: "a", Target: TargetListener, Op: OpWrite, Nth: 1, Action: ActionRefuse}), "op"},
		{"listener bad action", sched(Rule{ID: "a", Target: TargetListener, Nth: 1, Action: ActionCut}), "action"},
		{"journal with side", sched(Rule{ID: "a", Target: TargetJournal, Side: SideClient, Nth: 1, Action: ActionFail}), "no side or conn"},
		{"journal bad op", sched(Rule{ID: "a", Target: TargetJournal, Op: OpWrite, Nth: 1, Action: ActionFail}), "op"},
		{"journal bad action", sched(Rule{ID: "a", Target: TargetJournal, Nth: 1, Action: ActionRefuse}), "action"},
		{"sync offset", sched(Rule{ID: "a", Target: TargetJournal, Op: OpSync, Nth: 1, Action: ActionFail, OffsetBytes: 3}), "offset_bytes on a sync"},
		{"bad delay", sched(Rule{ID: "a", Target: TargetConn, Conn: 1, Nth: 1, Action: ActionDelay, DelayMS: -3}), "delay_ms"},
		{"delay on cut", sched(Rule{ID: "a", Target: TargetConn, Conn: 1, Nth: 1, Action: ActionCut, DelayMS: 2}), "delay_ms on a non-delay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Marshal(tc.s); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Marshal error %v, want substring %q", err, tc.want)
			}
			if _, err := NewInjector(tc.s); err == nil {
				t.Fatalf("NewInjector accepted invalid schedule")
			}
		})
	}
	if _, err := Marshal(nil); err == nil {
		t.Fatal("Marshal(nil) succeeded")
	}
}

func TestUnmarshalRejectsForeignDocuments(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"not json", "nope", "decode envelope"},
		{"bad version", `{"v":9,"kind":"fault-schedule","body":{}}`, "schema version"},
		{"bad kind", `{"v":1,"kind":"trace","body":{}}`, "kind"},
		{"unknown field", `{"v":1,"kind":"fault-schedule","body":{"name":"x","seed":1,"faults":[],"extra":1}}`, "decode schedule body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Unmarshal([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Unmarshal error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestConnWriteCut(t *testing.T) {
	in := mustInjector(t, sched(
		Rule{ID: "cut", Target: TargetConn, Conn: 1, Nth: 2, Action: ActionCut, OffsetBytes: 3},
	))
	client, server := tcpPair(t)
	wrapped := in.WrapConn(client)

	if _, err := wrapped.Write([]byte("hello")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	n, err := wrapped.Write([]byte("world"))
	if err == nil || !strings.Contains(err.Error(), `cut by rule "cut"`) {
		t.Fatalf("write 2 error %v, want cut", err)
	}
	if n != 3 {
		t.Fatalf("cut let %d bytes through, want 3", n)
	}
	// The peer sees exactly the first frame plus the torn prefix.
	got, _ := io.ReadAll(server)
	if string(got) != "hellowor" {
		t.Fatalf("peer read %q, want %q", got, "hellowor")
	}
	// The connection is dead for later writes too.
	if _, err := wrapped.Write([]byte("x")); err == nil {
		t.Fatal("write after cut succeeded")
	}
	ev := in.Log()
	if len(ev) != 1 || ev[0].Rule != "cut" || ev[0].N != 2 || ev[0].Detail != "cut after 3 bytes" {
		t.Fatalf("fault log %+v", ev)
	}
}

func TestConnReadCutAndDelay(t *testing.T) {
	in := mustInjector(t, sched(
		Rule{ID: "slow", Target: TargetConn, Conn: 1, Op: OpRead, Nth: 1, Action: ActionDelay, DelayMS: 1},
		Rule{ID: "rcut", Target: TargetConn, Conn: 1, Op: OpRead, Nth: 2, Action: ActionCut},
	))
	client, server := tcpPair(t)
	wrapped := in.WrapConn(client)
	go server.Write([]byte("ab"))

	buf := make([]byte, 1)
	if _, err := io.ReadFull(wrapped, buf); err != nil || buf[0] != 'a' {
		t.Fatalf("delayed read: %v %q", err, buf)
	}
	if _, err := wrapped.Read(buf); err == nil || !strings.Contains(err.Error(), `read cut by rule "rcut"`) {
		t.Fatalf("read 2 error %v, want cut", err)
	}
	ev := in.Log()
	if len(ev) != 2 || ev[0].Rule != "slow" || ev[0].Detail != "delayed 1ms" || ev[1].Rule != "rcut" {
		t.Fatalf("fault log %+v", ev)
	}
}

func TestListenerRefuseAndServerConnIndexing(t *testing.T) {
	in := mustInjector(t, sched(
		Rule{ID: "refuse", Target: TargetListener, Nth: 1, Action: ActionRefuse},
		Rule{ID: "scut", Target: TargetConn, Side: SideServer, Conn: 2, Op: OpWrite, Nth: 1, Action: ActionCut},
	))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := in.WrapListener(lis)
	defer wrapped.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := wrapped.Accept()
		if err != nil {
			t.Error(err)
			accepted <- nil
			return
		}
		accepted <- c
	}()

	// Dial 1 is refused: the TCP handshake completes (the kernel accepted)
	// but the conn is closed immediately — a read sees EOF.
	c1, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Read(make([]byte, 1)); err == nil {
		t.Fatal("refused conn delivered data")
	}

	// Dial 2 survives and is wrapped as server conn 2: its first write cuts.
	c2, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sc := <-accepted
	if sc == nil {
		t.Fatal("no accepted conn")
	}
	if _, err := sc.Write([]byte("reply")); err == nil || !strings.Contains(err.Error(), `server conn 2 write cut`) {
		t.Fatalf("server write error %v, want cut", err)
	}
	if got := in.Counters().Accepts; got != 2 {
		t.Fatalf("accepts %d, want 2", got)
	}
}

// memJournal is an in-memory persist.JournalFile recording writes.
type memJournal struct {
	buf    bytes.Buffer
	syncs  int
	closed bool
}

func (m *memJournal) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memJournal) Sync() error                 { m.syncs++; return nil }
func (m *memJournal) Close() error                { m.closed = true; return nil }

func TestJournalFaults(t *testing.T) {
	in := mustInjector(t, sched(
		Rule{ID: "torn", Target: TargetJournal, Nth: 2, Action: ActionFail, OffsetBytes: 4},
		Rule{ID: "lag", Target: TargetJournal, Nth: 3, Action: ActionDelay, DelayMS: 1},
		Rule{ID: "nosync", Target: TargetJournal, Op: OpSync, Nth: 2, Action: ActionFail},
	))
	mem := &memJournal{}
	j := in.WrapJournal(1, mem)

	if _, err := j.Write([]byte("record-1")); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	n, err := j.Write([]byte("record-2"))
	if err == nil || !strings.Contains(err.Error(), `rule "torn"`) {
		t.Fatalf("append 2 error %v, want fail", err)
	}
	if n != 4 || mem.buf.String() != "record-1reco" {
		t.Fatalf("torn append wrote %d bytes, file %q", n, mem.buf.String())
	}
	if _, err := j.Write([]byte("record-3")); err != nil {
		t.Fatalf("delayed append 3: %v", err)
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := j.Sync(); err == nil || !strings.Contains(err.Error(), `rule "nosync"`) {
		t.Fatalf("sync 2 error %v, want fail", err)
	}
	if err := j.Close(); err != nil || !mem.closed {
		t.Fatalf("close: %v (closed=%v)", err, mem.closed)
	}
	if c := in.Counters(); c.Appends != 3 || c.Syncs != 2 {
		t.Fatalf("counters %+v", c)
	}
}

func TestFaultLogDeterminism(t *testing.T) {
	// Random offsets and delays (-1) resolve from the schedule seed, so two
	// injectors running the same operation sequence log identical bytes.
	s := sched(
		Rule{ID: "rcut", Target: TargetConn, Conn: 1, Nth: 2, Action: ActionCut, OffsetBytes: -1},
		Rule{ID: "rlag", Target: TargetJournal, Nth: 1, Action: ActionDelay, DelayMS: -1},
	)
	run := func() []byte {
		in := mustInjector(t, s)
		mem := &memJournal{}
		j := in.WrapJournal(1, mem)
		j.Write([]byte("rec"))
		client, server := tcpPair(t)
		defer server.Close()
		w := in.WrapConn(client)
		w.Write([]byte("first"))
		w.Write([]byte("second-frame"))
		doc, err := in.MarshalLog()
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("fault logs differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(string(a), "rcut") || !strings.Contains(string(a), "rlag") {
		t.Fatalf("fault log missing firings:\n%s", a)
	}
}

func TestPassThroughInjector(t *testing.T) {
	in, err := NewInjector(nil)
	if err != nil {
		t.Fatal(err)
	}
	client, server := tcpPair(t)
	w := in.WrapConn(client)
	go server.Write([]byte("pong"))
	if _, err := w.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(w, buf); err != nil || string(buf) != "pong" {
		t.Fatalf("read %q, %v", buf, err)
	}
	doc, err := in.MarshalLog()
	if err != nil || string(doc) != "[]\n" {
		t.Fatalf("empty log %q, %v", doc, err)
	}
	if c := in.Counters(); c.ClientConns != 1 {
		t.Fatalf("counters %+v", c)
	}
}
