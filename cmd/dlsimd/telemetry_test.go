package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// scrape fetches GET /metrics and returns the exposition text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.TextContentType {
		t.Errorf("content type = %q, want %q", ct, telemetry.TextContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsEndpoint is the acceptance criterion: one scrape covers
// the runner pool, the cache, retry/shed counters, per-workload
// simulation counters, fault-injection points, and the HTTP front end
// — all under stable names.
func TestMetricsEndpoint(t *testing.T) {
	faultinject.Enable("dlsimd.submit", faultinject.PointConfig{Mode: faultinject.Delay, Prob: 0})
	t.Cleanup(faultinject.Reset)
	ts, _ := newTestServer(t)

	sub, code := postJob(t, ts, specA)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	pollState(t, ts, sub.ID, runner.StateDone)
	if _, code := postJob(t, ts, specA); code != http.StatusOK {
		t.Fatalf("resubmit status = %d, want cached 200", code)
	}

	out := scrape(t, ts)
	for _, want := range []string{
		// Runner pool and queue.
		"# TYPE dlsim_runner_workers gauge",
		"dlsim_runner_jobs_completed_total 1",
		"dlsim_runner_queue_wait_ms_count",
		"dlsim_runner_job_wall_ms_count 1",
		// Cache effectiveness.
		"dlsim_runner_cache_misses_total 1",
		"dlsim_runner_cache_hits_total 1",
		// Retry/shed counters exist even at zero.
		"dlsim_runner_retries_total 0",
		"dlsim_runner_shed_total 0",
		// Warm-state checkpoints: no spec here repeats a warm phase.
		"dlsim_runner_warm_checkpoint_captures_total 0",
		"dlsim_runner_warm_checkpoint_hits_total 0",
		"dlsim_runner_warm_checkpoints 0",
		// Per-workload simulation counters.
		`dlsim_sim_instructions_total{workload="memcached",config="base"}`,
		`dlsim_sim_abtb_redirects_total{workload="memcached",config="base"}`,
		// Fault-injection points (armed above, synced at scrape; under
		// `make faults` the environment arms extra points, so assert
		// presence rather than an exact armed count).
		`dlsim_fault_point_hits{point="dlsimd.submit"}`,
		"# TYPE dlsim_fault_points_armed gauge",
		// HTTP front end and process.
		`dlsim_http_requests_total{route="/v1/jobs",method="POST",code="202"} 1`,
		`dlsim_http_requests_total{route="/v1/jobs",method="POST",code="200"} 1`,
		"# TYPE dlsim_http_request_ms histogram",
		"# TYPE dlsim_uptime_seconds gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "dlsim_fault_points_armed ") && strings.HasSuffix(line, " 0") {
			t.Errorf("armed-points gauge reads 0 with a point armed: %q", line)
		}
	}
}

// TestTraceIDPropagation is the acceptance criterion: the ID returned
// by POST /v1/jobs addresses both the job and its trace, and the
// trace shows the phase breakdown with per-phase durations.
func TestTraceIDPropagation(t *testing.T) {
	ts, _ := newTestServer(t)

	sub, code := postJob(t, ts, specB)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	pollState(t, ts, sub.ID, runner.StateDone)

	resp, err := http.Get(ts.URL + "/v1/traces/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/traces/%s status = %d", sub.ID, resp.StatusCode)
	}
	var tr telemetry.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != sub.ID {
		t.Errorf("trace id = %s, want job id %s", tr.ID, sub.ID)
	}
	if tr.Root.Name != "job" || tr.Root.InProgress {
		t.Errorf("root = %+v, want finished job span", tr.Root)
	}
	if tr.Root.Attrs["workload"] != "memcached" {
		t.Errorf("root attrs = %v", tr.Root.Attrs)
	}
	names := make([]string, len(tr.Root.Children))
	for i, c := range tr.Root.Children {
		names[i] = c.Name
		if c.DurMS < 0 {
			t.Errorf("phase %s has negative duration", c.Name)
		}
	}
	if got := strings.Join(names, " "); got != "queued attempt" {
		t.Errorf("phases = %q, want \"queued attempt\"", got)
	}

	// Unknown trace IDs 404 with the structured envelope.
	resp2, err := http.Get(ts.URL + "/v1/traces/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", resp2.StatusCode)
	}
	if e := decodeError(t, resp2); e.Code != http.StatusNotFound || e.RequestID == "" {
		t.Errorf("error envelope = %+v, want 404 with request id", e)
	}
}

// TestStatsMatchesMetrics: /v1/stats and /metrics are two views over
// the same registry, so their numbers cannot drift.
func TestStatsMatchesMetrics(t *testing.T) {
	ts, _ := newTestServer(t)
	sub, _ := postJob(t, ts, specC)
	pollState(t, ts, sub.ID, runner.StateDone)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out := scrape(t, ts)
	if !strings.Contains(out, "dlsim_runner_jobs_completed_total 1") || st.Completed != 1 {
		t.Errorf("completed: stats=%d, exposition:\n%s", st.Completed, out)
	}
	if st.JobP50MS <= 0 || st.JobP99MS < st.JobP50MS {
		t.Errorf("latency quantiles p50=%.3f p99=%.3f", st.JobP50MS, st.JobP99MS)
	}
	if st.UptimeS < 0 {
		t.Errorf("uptime = %f", st.UptimeS)
	}
}

// TestTraceSurvivesRetry: a job that retried shows the backoff phase
// through the HTTP trace endpoint.
func TestTraceSurvivesRetry(t *testing.T) {
	armed(t, "runner.execute", faultinject.PointConfig{Mode: faultinject.Error, Prob: 1, Count: 1})
	ts, _ := newTestServerOpts(t, runner.Options{
		Workers: 1,
		Retry:   runner.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	}, serverConfig{})

	sub, _ := postJob(t, ts, specA)
	pollState(t, ts, sub.ID, runner.StateDone)

	resp, err := http.Get(ts.URL + "/v1/traces/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr telemetry.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range tr.Root.Children {
		names = append(names, c.Name)
	}
	if got := strings.Join(names, " "); got != "queued attempt backoff queued attempt" {
		t.Errorf("phases = %q, want retry anatomy", got)
	}
	if got := scrape(t, ts); !strings.Contains(got, "dlsim_runner_retries_total 1") {
		t.Error("exposition missing retry counter increment")
	}
}

// TestWarmCheckpointOverHTTP: two specs that differ only in
// sample_windows share a warm phase.  With one worker, the first job
// warms and checkpoints while the second waits; the second restores
// the checkpoint.  /v1/stats counts one capture and one hit with none
// left held, and each job's trace says how its warmup ran.
func TestWarmCheckpointOverHTTP(t *testing.T) {
	// Hold the first job briefly before it starts, so the second is
	// queued behind it when its warm phase ends.
	faultinject.Enable("runner.execute", faultinject.PointConfig{Mode: faultinject.Delay, Prob: 1, Count: 1, Delay: 300 * time.Millisecond})
	t.Cleanup(faultinject.Reset)
	ts, _ := newTestServerOpts(t, runner.Options{Workers: 1}, serverConfig{})

	var ids []string
	for _, sw := range []int{4, 8} {
		body := fmt.Sprintf(`{"workload":"memcached","config":"enhanced","seed":7,"warm":10,"measure":40,"sample_windows":%d}`, sw)
		sub, code := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", body, code)
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		pollState(t, ts, id, runner.StateDone)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmCaptures != 1 || st.WarmHits != 1 || st.WarmCheckpoints != 0 {
		t.Errorf("stats captures=%d hits=%d held=%d, want 1, 1, 0", st.WarmCaptures, st.WarmHits, st.WarmCheckpoints)
	}

	for i, want := range []string{"captured", "hit"} {
		resp, err := http.Get(ts.URL + "/v1/traces/" + ids[i])
		if err != nil {
			t.Fatal(err)
		}
		var tr telemetry.TraceJSON
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, attempt := range tr.Root.Children {
			for _, ph := range attempt.Children {
				if ph.Name == "warmup" {
					got = ph.Attrs["checkpoint"]
				}
			}
		}
		if got != want {
			t.Errorf("job %s warmup checkpoint = %q, want %q", ids[i], got, want)
		}
	}
}
