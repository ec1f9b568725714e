package rados

import (
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// outcome is one fake attempt's result: err, delivered after `after`, or
// never when after is negative.
type outcome struct {
	after sim.Duration
	err   error
}

// TestRetryDriver drives RetryPolicy.Run with fake attempts, one row per
// property of the driver both fan-out protocols share. Every row also
// checks that done runs exactly once even after late completions drain,
// and that each retry's attempt span carries a KindRetry link to the
// attempt span before it.
func TestRetryDriver(t *testing.T) {
	const us = sim.Microsecond
	errA, errB, errC := errors.New("a"), errors.New("b"), errors.New("c")
	cases := []struct {
		name     string
		policy   RetryPolicy
		write    bool
		tries    []outcome
		wantErr  error
		wantDone sim.Time
		// wantIssue is when each attempt starts; sameEvent requires every
		// re-issue to run inside the event that failed its predecessor.
		wantIssue []sim.Time
		sameEvent bool
		want      metrics.Resilience
	}{
		{
			name:      "late completion after the deadline is dropped",
			policy:    RetryPolicy{Deadline: 10 * us, MaxRetries: 1},
			tries:     []outcome{{50 * us, nil}, {5 * us, nil}},
			wantDone:  sim.Time(15 * us),
			wantIssue: []sim.Time{0, sim.Time(10 * us)},
			want:      metrics.Resilience{Retries: 1, DeadlineExceeded: 1},
		},
		{
			name:      "attempt that never completes is abandoned",
			policy:    RetryPolicy{Deadline: 10 * us, MaxRetries: 1},
			tries:     []outcome{{-1, nil}, {-1, nil}},
			wantErr:   ErrDeadline,
			wantDone:  sim.Time(20 * us),
			wantIssue: []sim.Time{0, sim.Time(10 * us)},
			want:      metrics.Resilience{Retries: 1, DeadlineExceeded: 2},
		},
		{
			name: "exhausted write budget returns the last error and opens a stall window",
			policy: RetryPolicy{MaxRetries: 2,
				Backoff: func(int) sim.Duration { return 3 * us }},
			write:     true,
			tries:     []outcome{{us, errA}, {us, errB}, {us, errC}},
			wantErr:   errC,
			wantDone:  sim.Time(9 * us),
			wantIssue: []sim.Time{0, sim.Time(4 * us), sim.Time(8 * us)},
			// The window is backdated to the op's start: it spans the
			// whole 9 µs the writer was stalled.
			want: metrics.Resilience{Retries: 2, WriteStalls: 1, StallTotal: 9 * us, StallMax: 9 * us},
		},
		{
			name:      "nil backoff re-issues in the same event",
			policy:    RetryPolicy{MaxRetries: 3},
			tries:     []outcome{{2 * us, errA}, {2 * us, errB}, {2 * us, nil}},
			wantDone:  sim.Time(6 * us),
			wantIssue: []sim.Time{0, sim.Time(2 * us), sim.Time(4 * us)},
			sameEvent: true,
			want:      metrics.Resilience{Retries: 2},
		},
		{
			name: "zero backoff re-issues in the same event",
			policy: RetryPolicy{MaxRetries: 1,
				Backoff: func(int) sim.Duration { return 0 }},
			write:     true,
			tries:     []outcome{{2 * us, errA}, {2 * us, nil}},
			wantDone:  sim.Time(4 * us),
			wantIssue: []sim.Time{0, sim.Time(2 * us)},
			sameEvent: true,
			want:      metrics.Resilience{Retries: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			tracer := trace.New(trace.Config{SampleEvery: 1})
			sink := tracer.Sink(eng, "client")
			root := sink.Root("op")
			var counters metrics.Resilience
			p := tc.policy
			p.Counters = &counters

			var issuedAt []sim.Time
			var issuedIn, failedIn []uint64 // events executed at issue / at failure
			var parents []uint64            // attempt span each attempt ran under
			dones := 0
			var gotErr error
			var doneAt sim.Time
			p.Run(eng, sink, "test-attempt", tc.write, root.Ref(), func(try int, atr trace.Ref, done func([]byte, error)) {
				issuedAt = append(issuedAt, eng.Now())
				issuedIn = append(issuedIn, eng.Executed())
				parents = append(parents, atr.Parent)
				o := tc.tries[try]
				if o.after < 0 {
					return
				}
				eng.Schedule(o.after, func() {
					failedIn = append(failedIn, eng.Executed())
					done(nil, o.err)
				})
			}, func(_ []byte, err error) {
				dones++
				gotErr, doneAt = err, eng.Now()
			})
			eng.Run()
			root.End()
			counters.CloseStalls(doneAt)

			if dones != 1 {
				t.Fatalf("done ran %d times, want 1", dones)
			}
			if !errors.Is(gotErr, tc.wantErr) || doneAt != tc.wantDone {
				t.Errorf("done(%v) at %v, want done(%v) at %v", gotErr, doneAt, tc.wantErr, tc.wantDone)
			}
			if counters != tc.want {
				t.Errorf("counters = %+v, want %+v", counters, tc.want)
			}
			if len(issuedAt) != len(tc.wantIssue) {
				t.Fatalf("issued %d attempts at %v, want %v", len(issuedAt), issuedAt, tc.wantIssue)
			}
			for i, at := range tc.wantIssue {
				if issuedAt[i] != at {
					t.Errorf("attempt %d issued at %v, want %v", i, issuedAt[i], at)
				}
				if tc.sameEvent && i > 0 && issuedIn[i] != failedIn[i-1] {
					t.Errorf("attempt %d issued %d events after attempt %d failed, want the same event",
						i, issuedIn[i]-failedIn[i-1], i-1)
				}
			}

			var spans []trace.Span
			for _, sp := range tracer.Finalize(tc.name).Spans {
				if sp.Name == "test-attempt" {
					spans = append(spans, sp)
				}
			}
			if len(spans) != len(issuedAt) {
				t.Fatalf("%d attempt spans for %d attempts", len(spans), len(issuedAt))
			}
			for i, sp := range spans {
				if parents[i] != sp.ID {
					t.Errorf("attempt %d ran under span %x, want its attempt span %x", i, parents[i], sp.ID)
				}
				wantKind, wantCause := "", uint64(0)
				if i > 0 {
					wantKind, wantCause = trace.KindRetry, spans[i-1].ID
				}
				if sp.Kind != wantKind || sp.Cause != wantCause {
					t.Errorf("attempt %d span link = (%q, %x), want (%q, %x)", i, sp.Kind, sp.Cause, wantKind, wantCause)
				}
			}
		})
	}
}
