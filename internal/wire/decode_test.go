package wire

// Decode parity: encoding/json is the oracle for every decoder in this
// package. For any bytes and any message type, what Decode accepts
// json.Unmarshal accepts into a reflect.DeepEqual value, and what
// json.Unmarshal accepts Decode decodes identically — except a key that
// names a field only case-insensitively, which Decode refuses with
// ErrFoldedKey.

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/model"
)

// messages lists a constructor for every rpc message type.
var messages = []func() Message{
	func() Message { return new(OpenJobRequest) },
	func() Message { return new(OpenJobResponse) },
	func() Message { return new(PlanRequest) },
	func() Message { return new(PlanResponse) },
	func() Message { return new(ReplanRequest) },
	func() Message { return new(SimulateRequest) },
	func() Message { return new(SimulateResponse) },
	func() Message { return new(CloseJobRequest) },
	func() Message { return new(CloseJobResponse) },
	func() Message { return new(StatsRequest) },
	func() Message { return new(StatsResponse) },
	func() Message { return new(SetFleetRequest) },
	func() Message { return new(SetFleetResponse) },
	func() Message { return new(FleetEventRequest) },
	func() Message { return new(FleetEventResponse) },
	func() Message { return new(RebalanceRequest) },
	func() Message { return new(RebalanceResponse) },
	func() Message { return new(FleetStatsRequest) },
	func() Message { return new(FleetStatsResponse) },
}

// fullMessages returns one value of every message type with every field,
// nested ones included, set to something other than its zero value.
func fullMessages() []Message {
	res := FromResult(sampleResult())
	res.Degraded = true
	lease := FromLease(fleet.Lease{Job: "a", Priority: 2, Acquired: 7, Plan: samplePlan()})
	pool := FromPool(samplePool())
	cons := Constraints{MaxCostPerIter: 1.25, MinThroughput: 0.5, MaxIterTime: 30}
	return []Message{
		&OpenJobRequest{V: Version, Job: "a", Model: FromModel(model.GPTNeo27B()), GPUs: []string{"A100-40", "V100-16"}, Priority: 3},
		&OpenJobResponse{V: Version},
		&PlanRequest{V: Version, Job: "a", Pool: pool, Objective: "min-cost", Constraints: cons},
		&PlanResponse{V: Version, Result: res},
		&ReplanRequest{V: Version, Job: "a", Prev: FromPlan(samplePlan()), Pool: pool, Objective: "max-throughput", Constraints: cons},
		&SimulateRequest{V: Version, Job: "a", Plan: FromPlan(samplePlan())},
		&SimulateResponse{V: Version, Estimate: FromEstimate(sampleEstimate())},
		&CloseJobRequest{V: Version, Job: "a"},
		&CloseJobResponse{V: Version},
		&StatsRequest{V: Version},
		&StatsResponse{V: Version, Stats: ServiceStats{UptimeSeconds: 1.5, Requests: 2, QPS: 3.5, Plans: 4, Replans: 5,
			Simulates: 6, Errors: 7, InFlight: -8, JobsOpen: 9, SystemsCached: 10, SystemCacheHits: 11,
			SystemCacheMisses: 12, Recovery: &RecoveryStats{SnapshotGen: 13, LedgerVersion: 14, JobsRestored: 15,
				RecordsReplayed: 16, DurationSeconds: 17.5}, Overloaded: 18, Degraded: 19, JournalError: "disk full",
			SpecHits: 20, SpecMisses: 21, SpecPrecomputed: 22}},
		&SetFleetRequest{V: Version, Capacity: pool, JobCapGPUs: 8},
		&SetFleetResponse{V: Version},
		&FleetEventRequest{V: Version, Event: FleetEvent{AtNS: 90e9, Zone: Zone{Region: "r", Name: "r-a"}, GPU: "V100-16", Delta: -3}},
		&FleetEventResponse{V: Version, Broken: []LeaseInfo{lease, lease}},
		&RebalanceRequest{V: Version},
		&RebalanceResponse{V: Version, Steps: []RebalanceStep{
			{Job: "a", Priority: 1, Action: "admit", Result: &res},
			{Job: "b", Priority: -1, Action: "wait", Error: "no capacity"},
		}},
		&FleetStatsRequest{V: Version},
		&FleetStatsResponse{V: Version, Stats: FleetStats{Version: 3, CapacityGPUs: 28, LeasedGPUs: 4, FreeGPUs: 24,
			JobCapGPUs: 8, Capacity: pool, Free: pool, Leases: []LeaseInfo{lease}}},
	}
}

// checkParity decodes data as every message type with Decode's decoder and
// with json.Unmarshal, and fails unless they agree.
func checkParity(t *testing.T, data []byte) {
	t.Helper()
	for _, mk := range messages {
		got := mk()
		err := decodeWith(data, got.decode)
		want := reflect.New(reflect.TypeOf(got).Elem()).Interface()
		jerr := json.Unmarshal(data, want)
		switch {
		case errors.Is(err, ErrFoldedKey):
		case err != nil && jerr == nil:
			t.Fatalf("%T: wire refused what encoding/json accepts: %v\n%q", got, err, data)
		case err == nil && jerr != nil:
			t.Fatalf("%T: wire accepted what encoding/json refuses (%v)\n%q", got, jerr, data)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%T: decoded differently from encoding/json:\n%#v\nvs\n%#v\n%q", got, got, want, data)
		}
	}
}

// TestDecodeFullMessages: every message, with every field set, decodes
// back to itself, as encoding/json decodes it.
func TestDecodeFullMessages(t *testing.T) {
	for _, m := range fullMessages() {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		back := reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message)
		if err := Decode(data, back); err != nil {
			t.Fatalf("%T: %v\n%s", m, err, data)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("%T round trip:\n%#v\nvs\n%#v", m, back, m)
		}
		checkParity(t, data)
	}
}

// TestDecodeSkipsUnknownKeys: an unknown key in every object of every
// message is skipped, wherever it sits among the known ones.
func TestDecodeSkipsUnknownKeys(t *testing.T) {
	for _, m := range fullMessages() {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, extra := range []string{`{"zz":[{"a":1}],"`, `{"é":null,"`} {
			body := []byte(strings.ReplaceAll(string(data), `{"`, extra))
			back := reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message)
			if err := Decode(body, back); err != nil || !reflect.DeepEqual(back, m) {
				t.Errorf("%T with unknown keys: %v\n%s", m, err, body)
			}
			checkParity(t, body)
		}
	}
}

// TestDecodeChecksVersion: Decode refuses a well-formed message of another
// schema version, and a null body (which decodes to version 0).
func TestDecodeChecksVersion(t *testing.T) {
	for _, body := range []string{`{"v":1}`, `null`, `{}`} {
		if err := Decode([]byte(body), new(StatsRequest)); err == nil || !strings.Contains(err.Error(), "unsupported schema version") {
			t.Errorf("Decode(%s) = %v, want a version error", body, err)
		}
	}
}

// TestFieldListsMatchTags: each decoder's field list names exactly its
// struct's json keys, in declaration order, so no field goes unchecked for
// a case-folded key.
func TestFieldListsMatchTags(t *testing.T) {
	for _, tc := range []struct {
		v     any
		names []string
	}{
		{Zone{}, zoneFields}, {ReplicaRun{}, replicaRunFields}, {Stage{}, stageFields}, {Plan{}, planFields},
		{PoolEntry{}, poolEntryFields}, {Pool{}, poolFields}, {Constraints{}, constraintsFields},
		{Model{}, modelFields}, {Estimate{}, estimateFields}, {PlanResult{}, planResultFields},
		{FleetEvent{}, fleetEventFields}, {ServiceStats{}, serviceStatsFields},
		{RecoveryStats{}, recoveryStatsFields}, {RebalanceStep{}, rebalanceStepFields},
		{FleetStats{}, fleetStatsFields}, {LeaseInfo{}, leaseInfoFields},
		{StatsRequest{}, versionFields}, {OpenJobRequest{}, openJobRequestFields},
		{PlanRequest{}, planRequestFields}, {PlanResponse{}, planResponseFields},
		{ReplanRequest{}, replanRequestFields}, {SimulateRequest{}, simulateRequestFields},
		{SimulateResponse{}, simulateRespFields}, {CloseJobRequest{}, closeJobRequestFields},
		{StatsResponse{}, statsResponseFields}, {FleetStatsResponse{}, statsResponseFields},
		{SetFleetRequest{}, setFleetRequestFields}, {FleetEventRequest{}, fleetEventReqFields},
		{FleetEventResponse{}, fleetEventRespFields}, {RebalanceResponse{}, rebalanceRespFields},
	} {
		typ := reflect.TypeOf(tc.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, tag)
		}
		if !reflect.DeepEqual(tags, tc.names) {
			t.Errorf("%s: field list %q, json tags %q", typ.Name(), tc.names, tags)
		}
	}
}

// parityCases are bodies on which Decode must agree with encoding/json,
// chosen for each rule the decoders mirror; each also seeds
// FuzzDecodeParity.
var parityCases = []string{
	// Top level: null decodes to the zero value; other shapes, empty input
	// and trailing bytes are refused; whitespace is JSON's four bytes.
	`null`, " \t\r\n{\"v\" : 2 }\n", `{}`, `[]`, `""`, `0`, `true`, ``, ` `, `{`, `{"v":2}x`, `{"v":2}{}`,
	"\v{}", `nul`, `nullx`, `{"v":2}` + "\x00",
	// Objects: separators, trailing commas, non-string keys.
	`{"v":2,}`, `{,}`, `{"v" 2}`, `{"v":2 "job":"a"}`, `{1:2}`, `{"v"}`, `{"v":}`, `{"job":"a"`, `{"v":2]`,
	// Null and repeated keys: a later null leaves a scalar, a later value wins.
	`{"v":2,"v":null}`, `{"v":null}`, `{"v":1,"v":2}`, `{"job":"a","job":null,"job":"b"}`,
	// Integers: grammar, fractions, exponents and range.
	`{"v":"2"}`, `{"v":2.0}`, `{"v":1e2}`, `{"v":-0}`, `{"v":-}`, `{"v":00}`, `{"v":01}`, `{"v":1.}`,
	`{"v":.5}`, `{"v":+1}`, `{"v":-a}`, `{"v":1e}`, `{"v":1e+}`, `{"v":1.5e-3}`, `{"v":true}`, `{"v":[]}`,
	`{"v":{}}`, `{"v":x}`, `{"v":123456789012345678}`, `{"v":-123456789012345678}`,
	`{"v":9223372036854775807}`, `{"v":9223372036854775808}`, `{"v":-9223372036854775808}`,
	`{"v":-9223372036854775809}`,
	// Folded and escaped keys: "v" is "v"; "V" folds to it.
	`{"V":2}`, `{"v":2}`, `{"Job":"a"}`, `{"job":"a"}`, `{"":1}`, `{"v\u0000":1}`,
	// Unknown keys: any well-formed value is skipped, a malformed one is not.
	`{"x":{"y":[1,-2.5e3,{"z":null},[],{}],"w":"\ud800","t":true,"f":false},"v":2}`,
	`{"x":[}`, `{"x":{]}`, `{"x":[1,]}`, `{"x":{"a" 1}}`, `{"x":{"a":1,}}`, `{"x":{1:1}}`, `{"x":tru}`,
	`{"x":nul}`, `{"x":falsey}`, `{"x":-}`, `{"x":"\q"}`, `{"x":[1 2]}`, `{"x":{"a":1 "b":2}}`, `{"x":[`,
	`{"x":}`, `{"x":[1`, `{"x":{"a":[1]}`,
	// Strings: escapes, surrogates, invalid UTF-8 and control bytes.
	`{"job":"a\"b\\c\/d\b\f\n\r\té😀"}`, `{"job":"\ud800"}`, `{"job":"\ud800x"}`,
	`{"job":"\ud800A"}`, `{"job":"\ud83d\ude00"}`, `{"job":"\u00E9\u00e9"}`, `{"É":1}`, `{"job":"\udc00"}`, `{"job":"\ud800𐀀"}`, `{"job":"\u12"}`,
	`{"job":"\u12g4"}`, `{"job":"\x"}`, `{"job":"\`, `{"job":"abc`, "{\"job\":\"a\x01\"}",
	"{\"job\":\"\xff\xfe\"}", "{\"job\":\"\xed\xa0\x80\"}", "{\"job\":\"\xef\xbf\xbd\"}", "{\"job\":\"\xe2\x82\"}",
	"{\"job\":\"éK\"}", `{"job":1}`, `{"job":true}`, `{"job":{}}`, `{"job":[]}`,
	// Nested DTOs, slices and pointers.
	`{"v":2,"prev":{"stages":[{"first_layer":1},{"first_layer":2},{"first_layer":3}],"stages":[{"num_layers":5}],"stages":[{},{},{},{}]}}`,
	`{"prev":{"stages":[{"replicas":[{"gpu":"A","n":1}]}],"stages":[],"stages":[{}]}}`,
	`{"prev":{"stages":[{}],"stages":null}}`, `{"prev":{"stages":[null,{"num_layers":1}]}}`,
	`{"prev":{"stages":{}}}`, `{"prev":{"stages":[1]}}`, `{"prev":[]}`, `{"result":{"warm_start":1}}`,
	`{"result":{"warm_start":true,"warm_start":false}}`, `{"result":{"warm_start":null}}`, `{"prev":{"Stages":[]}}`,
	`{"prev":{"ſtages":[]}}`, `{"pool":{"entries":[{"zone":{"region":"r"},"zone":{"name":"n"}}]}}`,
	`{"pool":{"entries":[{"zone":{"region":"r","Name":"n"}}]}}`,
	`{"constraints":{"max_cost_per_iter":1e400}}`, `{"constraints":{"max_cost_per_iter":1e-400}}`,
	`{"constraints":{"min_throughput":-0.0,"max_iter_time":123456789012345678901234567890}}`,
	`{"constraints":{"max_iter_time":"1"}}`, `{"v":2,"result":{"estimate":{"stage_times":[1,null,2.5]}}}`,
	`{"result":{"estimate":{"stage_times":[1,2,3],"stage_times":[4]}}}`, `{"result":{"estimate":{"peaK_memory":1}}}`,
	`{"result":{"estimate":{"peak_memory":1.5}}}`, `{"result":{"search_time_ns":-5}}`,
	`{"v":2,"steps":[{"result":null}]}`, `{"v":2,"steps":[{"result":{}}]}`, `{"steps":[{"result":5}]}`,
	`{"steps":[{"result":{"explored":1},"result":{"cache_hits":2}}]}`, `{"steps":[{"result":{"explored":1},"result":null}]}`,
	`{"steps":[{"result":nul}]}`, `{"steps":[{"result":`,
	`{"stats":{"requests":-1}}`, `{"stats":{"requests":null}}`, `{"stats":{"requests":-0}}`, `{"stats":{"requests":18446744073709551615}}`,
	`{"stats":{"requests":18446744073709551616}}`, `{"stats":{"requests":1.0}}`, `{"stats":{"recovery":null}}`,
	`{"stats":{"recovery":{"snapshot_gen":1},"recovery":{"jobs_restored":2}}}`, `{"stats":{"in_flight":-1}}`,
	`{"gpus":["a",null,"b"]}`, `{"gpus":["a","b"],"gpus":["c"]}`, `{"gpus":[1]}`, `{"gpus":"a"}`, `{"gpus":[`, `{"gpus":["a"`,
	`{"broken":[{"plan":{"stages":[]}}]}`, `{"event":{"at_ns":1,"zone":{},"delta":-1}}`,
}

func TestDecodeParityCases(t *testing.T) {
	for _, c := range parityCases {
		checkParity(t, []byte(c))
	}
}

// TestDecodeDepth: 10 000 nested containers decode, one more does not,
// whether in an unknown value or in a known one.
func TestDecodeDepth(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, n := range []int{9999, 10000} {
		checkParity(t, []byte(`{"x":`+nest(n)+`}`))
		checkParity(t, []byte(`{"x":`+strings.Repeat(`{"a":`, n)+"1"+strings.Repeat("}", n)+`}`))
	}
	var p PlanRequest
	if err := decodeWith([]byte(`{"x":`+nest(10000)+`}`), p.decode); err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
		t.Errorf("10 001 levels: %v", err)
	}
	// Known containers count toward the limit an unknown value reaches.
	deep := `{"v":2,"result":{"plan":{"stages":[{"replicas":[{"zone":{"x":` + nest(maxDepth-6) + `}}]}]}}}`
	checkParity(t, []byte(deep))
	if err := decodeWith([]byte(deep), new(PlanResponse).decode); err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
		t.Errorf("over-deep value under known fields: %v", err)
	}
}

// TestDecodeFoldedKeyError: a case-folded key is refused by name, as a
// typed error.
func TestDecodeFoldedKeyError(t *testing.T) {
	for _, body := range []string{`{"Job":"a"}`, `{"JOB":"a"}`, `{"pool":{"Entries":[]}}`, `{"conſtraints":{}}`} {
		err := Decode([]byte(body), new(PlanRequest))
		if !errors.Is(err, ErrFoldedKey) {
			t.Errorf("Decode(%s) = %v, want ErrFoldedKey", body, err)
		}
	}
}

// TestDecodeErrorsAtOffset: errors name the byte offset they stopped at.
func TestDecodeErrorsAtOffset(t *testing.T) {
	for body, want := range map[string]string{
		`{"v":2}x`:           `wire: offset 7: invalid character 'x' after top-level value`,
		`{"v":"2"}`:          `wire: offset 5: cannot decode string into integer`,
		`{"v":2.5}`:          `wire: offset 8: cannot decode number 2.5 into a 64-bit integer`,
		`{"v":`:              `wire: offset 5: unexpected end of JSON input`,
		`{"job":"a` + "\x01": `wire: offset 9: invalid character '\x01' in string literal`,
	} {
		err := Decode([]byte(body), new(CloseJobRequest))
		if err == nil || err.Error() != want {
			t.Errorf("Decode(%q) = %v, want %s", body, err, want)
		}
	}
}

// TestGoldenBodiesDecode: the recorded warm-churn Replan request and reply
// decode, check and convert, as encoding/json decodes them.
func TestGoldenBodiesDecode(t *testing.T) {
	req, resp := warmChurnBodies(t)
	var q ReplanRequest
	var r PlanResponse
	if err := Decode(req, &q); err != nil {
		t.Fatal(err)
	}
	if err := Decode(resp, &r); err != nil {
		t.Fatal(err)
	}
	if err := q.Prev.Check(); err != nil {
		t.Fatal(err)
	}
	if len(q.Prev.Core().Stages) == 0 || len(r.Result.Result().Plan.Stages) == 0 {
		t.Fatal("recorded bodies hold empty plans")
	}
	checkParity(t, req)
	checkParity(t, resp)
}

// TestDecodeAllocs pins the allocations of decoding the recorded warm-churn
// Replan request and reply (18 and 8), and checks each stays below
// encoding/json's on the same body (45 and 18 with Go 1.24).
func TestDecodeAllocs(t *testing.T) {
	req, resp := warmChurnBodies(t)
	for _, tc := range []struct {
		name string
		body []byte
		msg  func() Message
		max  float64
	}{
		{"request", req, func() Message { return new(ReplanRequest) }, 18},
		{"reply", resp, func() Message { return new(PlanResponse) }, 8},
	} {
		wire := testing.AllocsPerRun(100, func() {
			if err := Decode(tc.body, tc.msg()); err != nil {
				t.Fatal(err)
			}
		})
		oracle := testing.AllocsPerRun(100, func() {
			if err := json.Unmarshal(tc.body, tc.msg()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs (encoding/json %v)", tc.name, wire, oracle)
		if wire > tc.max || wire >= oracle {
			t.Errorf("%s: %v allocs, want ≤ %v and below encoding/json's %v", tc.name, wire, tc.max, oracle)
		}
	}
}

func warmChurnBodies(t testing.TB) (req, resp []byte) {
	t.Helper()
	req, err := os.ReadFile("testdata/warm-churn-replan.request.json")
	if err != nil {
		t.Fatal(err)
	}
	resp, err = os.ReadFile("testdata/warm-churn-replan.reply.json")
	if err != nil {
		t.Fatal(err)
	}
	return req, resp
}

// FuzzDecodeParity feeds arbitrary bytes to every message decoder and
// checks each against encoding/json (see checkParity).
func FuzzDecodeParity(f *testing.F) {
	for _, m := range fullMessages() {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, c := range parityCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkParity(t, data) })
}

// decodePlan is wire's decoder for a bare Plan document.
func decodePlan(data []byte) (Plan, error) {
	var p Plan
	err := decodeWith(data, func(d *decoder) { d.plan(&p) })
	return p, err
}

func TestDecodePlanMatchesJSON(t *testing.T) {
	for _, p := range []core.Plan{{}, samplePlan()} {
		data, _ := json.Marshal(FromPlan(p))
		got, err := decodePlan(data)
		if err != nil || !reflect.DeepEqual(got.Core(), p) {
			t.Errorf("decodePlan(%s) = %+v, %v", data, got, err)
		}
	}
}

// BenchmarkDecode times the recorded warm-churn Replan request and reply
// through Decode and, for comparison, through json.Unmarshal:
//
//	go test ./internal/wire -run xxx -bench Decode -benchmem
func BenchmarkDecode(b *testing.B) {
	req, resp := warmChurnBodies(b)
	for _, tc := range []struct {
		name string
		body []byte
		msg  func() Message
	}{
		{"request", req, func() Message { return new(ReplanRequest) }},
		{"reply", resp, func() Message { return new(PlanResponse) }},
	} {
		b.Run(tc.name+"/wire", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Decode(tc.body, tc.msg()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := json.Unmarshal(tc.body, tc.msg()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
