package comm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"unsnap/internal/core"
	"unsnap/internal/enum"
)

// This file is the failure-domain layer of the partitioned drivers: the
// structured SweepError the deadline watchdog raises instead of letting a
// pipelined run hang on a message that never arrives, and the
// FailurePolicy state machine (fail fast / retry with backoff / degrade
// to the lagged protocol) Run applies around pipelined attempts.

// SweepError reports a partitioned sweep that could not complete — it
// ran past its deadline (Cause unwraps to context.DeadlineExceeded), or a
// halo lane lost or repeated a transfer (Deadline zero): which rank was
// stuck, the cross-rank edge it starved on, the blocked ordinate and
// element, and how much of the sweep was still outstanding. Rank/Peer/
// Ordinate/Elem are -1 when the corresponding detail could not be
// attributed (e.g. every rank was between sweeps, waiting at the
// convergence barrier).
type SweepError struct {
	Rank      int           // stuck rank, -1 unknown
	Peer      int           // upstream rank of the starved edge, -1 unknown
	Ordinate  int           // first blocked ordinate on Rank, -1 unknown
	Elem      int           // its local element, -1 unknown
	Remaining int64         // unfinished sweep tasks on Rank
	Pending   int64         // unresolved streamed dependencies on Rank
	Deadline  time.Duration // the deadline that expired; zero for a lane failure
	Cause     error
}

// The lane failures a pipelined receiver raises as a SweepError.
var (
	errTransferLost     = errors.New("a halo transfer was lost")
	errTransferRepeated = errors.New("a halo transfer arrived twice")
)

// Error formats the failure with every attributed detail.
func (e *SweepError) Error() string {
	var b strings.Builder
	if e.Deadline > 0 {
		fmt.Fprintf(&b, "comm: sweep exceeded %v deadline", e.Deadline)
	} else {
		fmt.Fprintf(&b, "comm: sweep aborted, %v", e.Cause)
	}
	if e.Rank < 0 {
		b.WriteString(" (no rank holds an armed sweep; stuck between sweeps)")
		return b.String()
	}
	fmt.Fprintf(&b, ": rank %d", e.Rank)
	if e.Ordinate >= 0 {
		fmt.Fprintf(&b, " blocked at ordinate %d (elem %d)", e.Ordinate, e.Elem)
	}
	if e.Peer >= 0 {
		fmt.Fprintf(&b, " on edge %d->%d", e.Peer, e.Rank)
	}
	fmt.Fprintf(&b, ", %d tasks unfinished, %d streamed dependencies unresolved", e.Remaining, e.Pending)
	return b.String()
}

// Unwrap exposes the cause (context.DeadlineExceeded for the watchdog).
func (e *SweepError) Unwrap() error { return e.Cause }

// sweepDeadlineError builds the watchdog's SweepError by introspecting
// the stuck ranks while they are still blocked: prefer a rank starving on
// streamed dependencies (the fault's victim), otherwise the rank with the
// most unfinished work.
func (d *Driver) sweepDeadlineError(deadline time.Duration) *SweepError {
	se := &SweepError{Rank: -1, Peer: -1, Ordinate: -1, Elem: -1,
		Deadline: deadline, Cause: context.DeadlineExceeded}
	for r, s := range d.solvers {
		rem, pend := s.SweepProgress()
		if rem == 0 {
			continue
		}
		starved, best := pend > 0, se.Pending > 0
		if se.Rank >= 0 && (best && !starved || best == starved && rem <= se.Remaining) {
			continue
		}
		se.Rank, se.Remaining, se.Pending = r, rem, pend
		se.Ordinate, se.Elem, se.Peer = -1, -1, -1
		if a, e, ok := s.FirstBlockedExternal(); ok {
			se.Ordinate, se.Elem = a, e
			se.Peer = d.upstreamOf(r, a, e)
		}
	}
	return se
}

// upstreamOf finds the peer rank feeding a streamed inflow face of local
// element e on rank r for ordinate a (-1 when e has none — the task was
// blocked transitively).
func (d *Driver) upstreamOf(r, a, e int) int {
	angles := d.cfg.Rank.Quad.Angles
	for _, rf := range d.remote[r] {
		if rf.Key.Elem == e && core.ExternalInflow(angles[a].Omega, rf.Normal, rf.Canonical) {
			return rf.Ref.Rank
		}
	}
	return -1
}

// FailureMode selects how Run responds to a failed or timed-out
// pipelined sweep.
type FailureMode int

const (
	// FailFast (the default) returns the first error unchanged.
	FailFast FailureMode = iota
	// FailRetry resets every rank solver to the zero iterate and reruns
	// the whole pipelined solve, up to MaxRetries times with exponential
	// backoff, then returns the last error.
	FailRetry
	// FailDegrade retries like FailRetry, and after the retries are
	// exhausted switches the driver's ranks to the lagged (BSP block
	// Jacobi) protocol and completes the solve there — the degraded
	// protocol converges to the same flux, at the cost of extra inner
	// iterations. The driver stays lagged for subsequent Runs (see
	// Driver.Degraded).
	FailDegrade
)

var failureModeNames = []string{FailFast: "fail", FailRetry: "retry", FailDegrade: "degrade"}

// String names the mode.
func (m FailureMode) String() string { return enum.Name(failureModeNames, m) }

// MarshalText spells m as String does.
func (m FailureMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a String spelling; the empty text is FailFast.
func (m *FailureMode) UnmarshalText(text []byte) error {
	return enum.Unmarshal(failureModeNames, m, text)
}

// FailurePolicy bounds the retry/degrade state machine of pipelined runs.
// Only a *SweepError (a deadline timeout or a broken halo lane) is
// retried: context cancellation, Close, build errors and health failures
// are terminal under every mode.
type FailurePolicy struct {
	Mode FailureMode
	// MaxRetries is the number of reruns after the first failed attempt
	// (FailRetry and FailDegrade; zero retries under FailDegrade degrades
	// immediately after the first failure).
	MaxRetries int
	// Backoff is the sleep before the first retry, doubling per further
	// retry; zero retries immediately.
	Backoff time.Duration
}

func (p FailurePolicy) validate() error {
	if p.Mode < FailFast || p.Mode > FailDegrade {
		return fmt.Errorf("comm: unknown failure mode %d", int(p.Mode))
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("comm: negative MaxRetries %d", p.MaxRetries)
	}
	if p.Backoff < 0 {
		return fmt.Errorf("comm: negative retry backoff %v", p.Backoff)
	}
	return nil
}

// retryable reports whether the policy may rerun after err: only the
// structured SweepError of the watchdog or a receiver qualifies —
// everything else (ctx cancellation, driver closed, per-element solve
// errors, health failures) is terminal.
func retryable(err error) bool {
	var se *SweepError
	return errors.As(err, &se)
}

// runPipelinedPolicy drives pipelined attempts under the failure policy.
func (d *Driver) runPipelinedPolicy(ctx context.Context) (*Result, error) {
	pol := d.cfg.Policy
	d.mu.Lock()
	seq := d.closeSeq
	d.mu.Unlock()
	if d.inj != nil {
		// Every Run replays the fault pattern from attempt 0, so repeat
		// Runs on one driver are as deterministic as first Runs.
		d.inj.ResetAttempts()
	}
	for attempt := 0; ; attempt++ {
		if d.inj != nil && attempt > 0 {
			d.inj.BeginAttempt()
		}
		res, err := d.runPipelined(ctx)
		if err == nil {
			res.Attempts = attempt + 1
			return res, nil
		}
		if pol.Mode == FailFast || !retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		d.mu.Lock()
		closed := d.closeSeq != seq
		d.mu.Unlock()
		if closed {
			// A Close landed since this Run started; do not resurrect the
			// pools it just stopped.
			return nil, err
		}
		// Rewind every rank to the zero iterate a fresh solver holds: the
		// retried run is then deterministically identical to a first run
		// (modulo the injector's per-attempt streams).
		for _, s := range d.solvers {
			s.ResetSweepCancel()
			s.ResetState()
		}
		if attempt < pol.MaxRetries {
			if pol.Backoff > 0 {
				shift := attempt
				if shift > 16 {
					shift = 16
				}
				t := time.NewTimer(pol.Backoff << shift)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return nil, fmt.Errorf("comm: run cancelled during retry backoff: %w (last failure: %v)", ctx.Err(), err)
				}
			}
			continue
		}
		if pol.Mode == FailDegrade {
			d.degradeToLagged()
			res, lerr := d.runLagged(ctx)
			if lerr != nil {
				return nil, lerr
			}
			res.Attempts = attempt + 2
			res.Degraded = true
			return res, nil
		}
		return nil, err
	}
}

// degradeToLagged swaps the stepper, not the solvers: a pipelined rank
// already declares its cross-rank faces External, so the lagged protocol
// sweeps it self-driven against slots its exchange fills. Only the
// publish hooks, the transport and the injector go (the retry loop has
// already reset every rank to the zero iterate). On a cyclic mesh the
// ranks keep their Cut of the global condensation: restricted to one
// rank, it leaves the rank's graph acyclic, which is all block Jacobi
// needs. The degradation is sticky: Run routes to the lagged path from
// here on.
func (d *Driver) degradeToLagged() {
	for _, s := range d.solvers {
		s.SetPublish(nil)
	}
	d.pipe = nil
	d.inj = nil
	d.mu.Lock()
	d.degraded = true
	d.mu.Unlock()
}

// Degraded reports whether a FailDegrade policy has demoted the driver to
// the lagged protocol.
func (d *Driver) Degraded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}
