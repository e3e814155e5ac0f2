package service

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro"
	"repro/internal/dist"
	"repro/internal/obs"
)

// TestConcurrentJobsEmitSpans floods a traced pool on each transport
// with concurrent jobs — every job's four rank goroutines emit spans
// into the shared tracer at once, which is the data race this test
// exists to put in front of the race detector. It also pins down the
// lane contract: every span carries its job's ID, so concurrent jobs
// land in separate trace lanes.
func TestConcurrentJobsEmitSpans(t *testing.T) {
	for _, transport := range []dist.Transport{dist.TransportMem, dist.TransportSim, dist.TransportTCP} {
		t.Run(string(transport), func(t *testing.T) {
			const (
				p    = 4
				jobs = 64
			)
			tracer := obs.NewTracer(p, obs.DefaultCapacity)
			pool, err := New(Options{
				P:             p,
				Seed:          11,
				Dist:          dist.Config{Transport: transport},
				MaxConcurrent: jobs,
				Tracer:        tracer,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			handles := make([]*Job, jobs)
			for i := range handles {
				pairs := []repro.Pair{{Key: 1, Value: uint64(i + 1)}, {Key: 2, Value: 7}}
				h, err := pool.Submit(fmt.Sprintf("traced-%d", i), func(ctx *repro.Context) error {
					return ctx.AssertSum(pairs, pairs)
				})
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				handles[i] = h
			}
			for i, h := range handles {
				if err := h.Await(); err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
			}

			spans := tracer.Snapshot()
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}
			seenJobs := map[int64]bool{}
			seenKinds := map[obs.Kind]bool{}
			for _, s := range spans {
				if s.Rank < 0 || int(s.Rank) >= p {
					t.Fatalf("span on rank %d outside the %d-rank mesh", s.Rank, p)
				}
				seenJobs[s.Job] = true
				seenKinds[s.Kind] = true
			}
			// Every job ran its own traced pipeline; a handful of rings
			// wrapping is fine, all jobs collapsing onto one lane is not.
			if len(seenJobs) < jobs/2 {
				t.Errorf("spans cover only %d distinct job lanes, want >= %d", len(seenJobs), jobs/2)
			}
			for _, want := range []obs.Kind{obs.KindStage, obs.KindCollective, obs.KindResolve} {
				if !seenKinds[want] {
					t.Errorf("no %v span recorded", want)
				}
			}
		})
	}
}

// TestPoolRegistryRendersUnifiedMetrics checks the one-registry
// contract: pool accounting, transport meters, collective rounds, and
// the job latency quantile all render from Pool.Registry with their
// documented names, and the numbers move when jobs run.
func TestPoolRegistryRendersUnifiedMetrics(t *testing.T) {
	pool, err := New(Options{P: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// The registry is first asked for after job 0 has completed: its
	// latency quantile is the pool's own ring, so that job counts too.
	var reg *obs.Registry
	const jobs = 5
	for i := 0; i < jobs; i++ {
		if i == 1 {
			reg = pool.Registry()
			if pool.Registry() != reg {
				t.Fatal("Registry is not cached: two calls returned different registries")
			}
		}
		pairs := []repro.Pair{{Key: 9, Value: uint64(i)}}
		h, err := pool.Submit(fmt.Sprintf("reg-%d", i), func(ctx *repro.Context) error {
			return ctx.AssertSum(pairs, pairs)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Await(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	snap := reg.Snapshot()
	if got := snap["service_jobs_completed"]; got != jobs {
		t.Errorf("service_jobs_completed = %v, want %d", got, jobs)
	}
	if got := snap["service_jobs_passed"]; got != jobs {
		t.Errorf("service_jobs_passed = %v, want %d", got, jobs)
	}
	if snap["comm_bytes_sent"] <= 0 {
		t.Errorf("comm_bytes_sent = %v, want > 0", snap["comm_bytes_sent"])
	}
	if snap["collective_ops_started"] <= 0 {
		t.Errorf("collective_ops_started = %v, want > 0", snap["collective_ops_started"])
	}
	if got := snap["service_job_latency_ns_count"]; got != jobs {
		t.Errorf("service_job_latency_ns_count = %v, want %d (observed per completed job)", got, jobs)
	}
	if st := pool.Stats(); st.P50Ns <= 0 || snap["service_job_latency_ns_p50"] != float64(st.P50Ns) || snap["service_job_latency_ns_p99"] != float64(st.P99Ns) {
		t.Errorf("registry latency p50/p99 = %v/%v, PoolStats says %d/%d: not one ring",
			snap["service_job_latency_ns_p50"], snap["service_job_latency_ns_p99"], st.P50Ns, st.P99Ns)
	}

	var buf bytes.Buffer
	if err := reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, name := range []string{
		"service_jobs_submitted", "service_jobs_completed", "service_jobs_inflight",
		"comm_bytes_sent", "comm_msgs_sent", "comm_conns_open",
		"collective_ops_started", "service_job_latency_ns_p50", "service_job_latency_ns_p99",
	} {
		if !strings.Contains(text, name+" ") {
			t.Errorf("rendered metrics missing %q:\n%s", name, text)
		}
	}
}

// TestRegistryNamesMatchREADME holds README's Metrics paragraph to what
// a traced pool's registry renders: every backticked name there,
// brace groups expanded, against every rendered line's name.
func TestRegistryNamesMatchREADME(t *testing.T) {
	pool, err := New(Options{P: 3, Seed: 5, Tracer: obs.NewTracer(3, obs.DefaultCapacity)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var buf bytes.Buffer
	if err := pool.Registry().Render(&buf); err != nil {
		t.Fatal(err)
	}
	rendered := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		rendered[strings.Fields(line)[0]] = true
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, para, ok := strings.Cut(string(readme), "**Metrics.**")
	if !ok {
		t.Fatal("README has no **Metrics.** paragraph")
	}
	para, _, _ = strings.Cut(para, "\n\n")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`([a-z0-9_{},]+)`").FindAllStringSubmatch(para, -1) {
		for _, name := range expandBraces(m[1]) {
			documented[name] = true
		}
	}
	for name := range rendered {
		if !documented[name] {
			t.Errorf("registry renders %q, README's Metrics paragraph does not name it", name)
		}
	}
	for name := range documented {
		if !rendered[name] {
			t.Errorf("README's Metrics paragraph names %q, the registry does not render it", name)
		}
	}
}

// expandBraces expands the brace groups of s, as a shell would:
// "a_{b,c}_{d,e}" is a_b_d, a_b_e, a_c_d, a_c_e.
func expandBraces(s string) []string {
	pre, rest, ok := strings.Cut(s, "{")
	if !ok {
		return []string{s}
	}
	alts, post, _ := strings.Cut(rest, "}")
	var out []string
	for _, alt := range strings.Split(alts, ",") {
		for _, tail := range expandBraces(post) {
			out = append(out, pre+alt+tail)
		}
	}
	return out
}
