package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"asyncagree/internal/service"
)

func TestParseMix(t *testing.T) {
	specs, err := parseMix("core/full/adversary/split/12:1, benor/subsets/adversary/split/9:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	want := scenarioSpec{alg: "benor", adv: "subsets", sched: "adversary", input: "split", n: 9, t: 2}
	if specs[1] != want {
		t.Fatalf("spec[1] = %+v, want %+v", specs[1], want)
	}

	for _, bad := range []string{"", "core/full/adversary/split", "core/full/adversary/split/12", "core/full/adversary/split/x:1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// startService exposes an in-process agreement service over a real TCP
// listener for the generator to hit.
func startService(t *testing.T, cfg service.Config) (string, *service.Server) {
	t.Helper()
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return strings.TrimPrefix(hs.URL, "http://"), srv
}

// okCount captures the ok count from the generator's "load: N sent ..."
// summary line.
var okCount = regexp.MustCompile(`(?m)^load: \d+ sent .*, (\d+) ok, `)

// TestLoadAgainstService: the generator drives a live in-process service
// within budget and exits 0, reporting latency and zero errors.
func TestLoadAgainstService(t *testing.T) {
	addr, _ := startService(t, service.Config{Workers: 2})
	var out bytes.Buffer
	code := run([]string{
		"-addr", addr, "-rps", "200", "-duration", "500ms",
		"-concurrency", "8", "-seed", "3", "-max-error-rate", "0",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), " ok, ") || !strings.Contains(out.String(), "latency") {
		t.Fatalf("report missing counts or latency:\n%s", out.String())
	}
	m := okCount.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("report has no load: counts line:\n%s", out.String())
	}
	if ok, _ := strconv.Atoi(m[1]); ok <= 0 {
		t.Fatalf("no successful requests:\n%s", out.String())
	}
}

// TestLoadInstanceMode drives the journaled named-instance path.
func TestLoadInstanceMode(t *testing.T) {
	addr, _ := startService(t, service.Config{Workers: 1})
	var out bytes.Buffer
	code := run([]string{
		"-addr", addr, "-rps", "50", "-duration", "400ms",
		"-concurrency", "1", "-instance", "exp1", "-max-error-rate", "0",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
}

// TestLoadErrorBudgetViolation: a server answering only 500s must blow a
// zero error budget and exit non-zero.
func TestLoadErrorBudgetViolation(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer hs.Close()
	var out bytes.Buffer
	code := run([]string{
		"-addr", strings.TrimPrefix(hs.URL, "http://"),
		"-rps", "100", "-duration", "200ms", "-max-error-rate", "0", "-quiet",
	}, &out)
	if code == 0 {
		t.Fatalf("exit 0 despite 100%% faults:\n%s", out.String())
	}
}

// TestLoadRetriesShedding: a server that sheds the first attempts then
// recovers is absorbed by retry — the request still counts as ok.
func TestLoadRetriesShedding(t *testing.T) {
	var hits int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits%2 == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"result":{}}`))
	}))
	defer hs.Close()
	var out bytes.Buffer
	code := run([]string{
		"-addr", strings.TrimPrefix(hs.URL, "http://"),
		"-rps", "20", "-duration", "300ms", "-concurrency", "1",
		"-retry-base", "1ms", "-max-error-rate", "0",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "retries") || strings.Contains(out.String(), " 0 retries") {
		t.Fatalf("expected retried requests in report:\n%s", out.String())
	}
}

func TestLoadBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-mix", "garbage"}, &out); code != 2 {
		t.Fatalf("bad mix: exit %d, want 2", code)
	}
	if code := run([]string{"-rps", "0"}, &out); code != 2 {
		t.Fatalf("zero rps: exit %d, want 2", code)
	}
}
