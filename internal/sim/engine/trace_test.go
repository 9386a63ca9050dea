package engine

import (
	"context"
	"testing"

	"svwsim/internal/trace"
)

// spansByName indexes a finished trace's engine_job spans by their
// (config, bench) attrs, in recorded order.
func engineJobSpans(t *testing.T, tr *trace.Trace) []trace.SpanJSON {
	t.Helper()
	var out []trace.SpanJSON
	for _, sp := range tr.JSON().Spans {
		if sp.Name == "engine_job" {
			out = append(out, sp)
		}
	}
	return out
}

func TestRunContextRecordsJobSpans(t *testing.T) {
	jobs := testJobs("gcc")
	tr := trace.New("eng-1", "/v1/sweep")
	ctx := trace.NewContext(context.Background(), tr)
	if _, err := New(2).RunContext(ctx, jobs, nil); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	spans := engineJobSpans(t, tr)
	if len(spans) != len(jobs) {
		t.Fatalf("got %d engine_job spans for %d jobs", len(spans), len(jobs))
	}
	seen := make(map[string]bool)
	for _, sp := range spans {
		a := sp.Attrs
		if a["config"] == "" || a["bench"] != "gcc" {
			t.Fatalf("span missing config/bench attrs: %v", a)
		}
		if a["index"] == "" || a["worker"] == "" {
			t.Fatalf("span missing placement attrs: %v", a)
		}
		if _, ok := a["shard"]; ok {
			t.Fatalf("span carries a shard attr, but jobs come from one queue: %v", a)
		}
		// A fresh engine has no memo entries: every distinct job is a miss
		// executed on a fresh or reset core.
		if a["memo"] != "miss" {
			t.Fatalf("first run memo attr = %q, want miss", a["memo"])
		}
		if a["core"] != "fresh" && a["core"] != "reset" {
			t.Fatalf("core attr = %q, want fresh|reset", a["core"])
		}
		seen[a["index"]] = true
	}
	if len(seen) != len(jobs) {
		t.Fatalf("job indices not distinct: %v", seen)
	}
}

func TestRunContextRecordsMemoHitSpans(t *testing.T) {
	jobs := testJobs("gcc")
	eng := New(1)
	if _, err := eng.Run(jobs, nil); err != nil {
		t.Fatal(err)
	}
	// Second run of the identical jobs: all memo hits, annotated as such.
	tr := trace.New("eng-2", "/v1/sweep")
	ctx := trace.NewContext(context.Background(), tr)
	if _, err := eng.RunContext(ctx, jobs, nil); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	for _, sp := range engineJobSpans(t, tr) {
		if sp.Attrs["memo"] != "hit" {
			t.Fatalf("repeat run memo attr = %q, want hit (attrs %v)", sp.Attrs["memo"], sp.Attrs)
		}
	}
}

func TestRunContextDuplicateJobsWaiterSpan(t *testing.T) {
	// The same job twice in one run: the second is delivered by the first's
	// completion — memo attr "hit" (already cached when a worker reaches it)
	// or "waiter" (blocked on the in-flight execution's done channel).
	jobs := testJobs("gcc")[:1]
	jobs = append(jobs, jobs[0])
	tr := trace.New("eng-3", "/v1/sweep")
	ctx := trace.NewContext(context.Background(), tr)
	if _, err := New(1).RunContext(ctx, jobs, nil); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	spans := engineJobSpans(t, tr)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var miss, dedup int
	for _, sp := range spans {
		switch sp.Attrs["memo"] {
		case "miss":
			miss++
		case "hit", "waiter":
			dedup++
		default:
			t.Fatalf("unexpected memo attr %q", sp.Attrs["memo"])
		}
	}
	if miss != 1 || dedup != 1 {
		t.Fatalf("want 1 miss + 1 deduped, got %d/%d", miss, dedup)
	}
}

func TestRunContextUntracedRecordsNothing(t *testing.T) {
	// No trace in the context: the run must work and record nowhere.
	if _, err := New(2).RunContext(context.Background(), testJobs("gcc"), nil); err != nil {
		t.Fatal(err)
	}
}
