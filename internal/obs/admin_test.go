package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestAdminEndpoints(t *testing.T) {
	reg := New().Label("server", "fs1")
	reg.Counter("dlfm_links_total").Add(2)
	reg.Histogram("lock_wait_seconds").Observe(time.Millisecond)
	tr := NewTracerCfg(TracerConfig{})
	root := tr.StartRoot(7, "host", "commit")
	tr.StartSpan(root.Ctx(), "host", "phase1").End()
	root.End()

	admin := &Admin{
		Registries: []*Registry{reg},
		Tracer:     tr,
		LockDump:   func() any { return map[string]any{"held_total": 3} },
	}
	ts := httptest.NewServer(admin.Handler())
	defer ts.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics content type = %q", ctype)
	}
	if !strings.Contains(metrics, `dlfm_links_total{server="fs1"} 2`) ||
		!strings.Contains(metrics, "lock_wait_seconds_bucket") {
		t.Fatalf("unexpected /metrics:\n%s", metrics)
	}

	txn, _ := get("/debug/txn/7")
	var payload struct {
		Spans       []Span      `json:"spans"`
		Timeline    []string    `json:"timeline"`
		Attribution Attribution `json:"attribution"`
	}
	if err := json.Unmarshal([]byte(txn), &payload); err != nil {
		t.Fatalf("txn decode: %v", err)
	}
	if len(payload.Spans) != 2 || len(payload.Timeline) != 2 ||
		payload.Attribution.RootNS != payload.Spans[0].DurNS || payload.Attribution.Buckets["phase1"] == 0 {
		t.Fatalf("/debug/txn/7 = %s", txn)
	}

	locks, _ := get("/debug/locks")
	var dump map[string]any
	if err := json.Unmarshal([]byte(locks), &dump); err != nil {
		t.Fatalf("locks decode: %v", err)
	}
	if dump["held_total"].(float64) != 3 {
		t.Fatalf("locks dump = %v", dump)
	}

	if body, _ := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index lacks the goroutine profile:\n%s", body)
	}

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Bad txn id is a 400, not a panic.
	if got := status("/debug/txn/abc"); got != http.StatusBadRequest {
		t.Fatalf("bad txn id status = %d", got)
	}
	// /debug/traces is not served: spans are the only trace model.
	if got := status("/debug/traces"); got != http.StatusNotFound {
		t.Fatalf("/debug/traces status = %d, want 404", got)
	}
}
