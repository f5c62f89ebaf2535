package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/testutil"
	"repro/sailor"
)

// TestJSONGolden pins the -json document shape: the versioned wire schema
// with only search_time_ns varying between runs.
func TestJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-model", "opt350m",
		"-quota", "us-central1-a:A100-40:8,us-central1-a:V100-16:4",
		"-workers", "1", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got := testutil.NormalizeJSON(t, buf.Bytes(), func(m map[string]any) {
		m["result"].(map[string]any)["search_time_ns"] = 0.0
	})
	testutil.CheckGolden(t, "plan.golden.json", got)
}

// TestServerModeMatchesLocal: the same CLI drives the daemon, and — with
// two tenants planning concurrently — every invocation produces the
// in-process answer byte-for-byte (after zeroing wall-clock fields).
func TestServerModeMatchesLocal(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := sailor.NewServer(lis, sailor.NewService(sailor.ServiceConfig{Workers: 1}))
	go srv.Serve()
	defer srv.Close()
	addr := lis.Addr().String()

	quota := "us-central1-a:A100-40:8"
	var local bytes.Buffer
	if err := run([]string{"-model", "opt350m", "-quota", quota, "-workers", "1", "-json"}, &local); err != nil {
		t.Fatal(err)
	}
	zero := func(m map[string]any) {
		m["result"].(map[string]any)["search_time_ns"] = 0.0
		delete(m, "server")
	}
	want := testutil.NormalizeJSON(t, local.Bytes(), zero)

	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, 2)
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = run([]string{
				"-model", "opt350m", "-quota", quota, "-workers", "1", "-json",
				"-server", addr, "-job", []string{"tenant-a", "tenant-b"}[g],
			}, &outs[g])
		}(g)
	}
	wg.Wait()
	for g := 0; g < 2; g++ {
		if errs[g] != nil {
			t.Fatalf("tenant %d: %v", g, errs[g])
		}
		got := testutil.NormalizeJSON(t, outs[g].Bytes(), zero)
		if !bytes.Equal(got, want) {
			t.Errorf("tenant %d: server-mode JSON != local JSON:\n%s\nvs\n%s", g, got, want)
		}
	}
}

// TestServerModeHumanOutput: text mode mentions the server and the plan.
func TestServerModeHumanOutput(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := sailor.NewServer(lis, sailor.NewService(sailor.ServiceConfig{Workers: 1}))
	go srv.Serve()
	defer srv.Close()
	var buf bytes.Buffer
	err = run([]string{"-model", "opt350m", "-quota", "z-a:A100-40:4",
		"-server", lis.Addr().String()}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"server:", "plan:", fmt.Sprintf("wire schema v%d", sailor.WireVersion)} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := run([]string{"-model", "opt350m", "-quota", "z-a:A100-40:4",
		"-server", lis.Addr().String(), "-measure"}, &buf); err == nil {
		t.Error("-measure with -server must be rejected")
	}
}

func TestParseQuota(t *testing.T) {
	pool, gpus, err := parseQuota("us-central1-a:A100-40:16,us-central1-b:V100-16:32")
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.TotalGPUs(); got != 48 {
		t.Errorf("TotalGPUs = %d, want 48", got)
	}
	if len(gpus) != 2 {
		t.Errorf("gpus = %v, want 2 distinct types", gpus)
	}
	zs := pool.Zones()
	if len(zs) != 2 || zs[0].Region != "us-central1" {
		t.Errorf("zones = %v", zs)
	}
}

func TestParseQuotaErrors(t *testing.T) {
	for _, bad := range []string{
		"zone-only",
		"z:A100-40:notanumber",
		"z:A100-40:-4",
		"z:A100-40:0",
	} {
		if _, _, err := parseQuota(bad); err == nil {
			t.Errorf("parseQuota(%q) should fail", bad)
		}
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"opt350m", "OPT-350M", "gptneo27b"} {
		if _, err := sailor.ModelByName(name); err != nil {
			t.Errorf("ModelByName(%q): %v", name, err)
		}
	}
	if _, err := sailor.ModelByName("bert"); err == nil {
		t.Error("unknown model should fail")
	}
}
