package main

import "testing"

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("1,2, 4")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParseThreadsInvalid(t *testing.T) {
	for _, bad := range []string{"", "a", "1,-2", "0", "1,,2"} {
		if _, err := parseThreads(bad); err == nil {
			t.Fatalf("%q should fail", bad)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
	// A list of only unknown names is rejected too.
	if err := run([]string{"-experiment", "nope,bogus"}); err == nil {
		t.Fatal("expected unknown-experiment error for list")
	}
	// The ledger experiments the traced benchmark replaced are gone.
	for _, name := range []string{"engine", "comm", "cycles", "setup", "accel"} {
		if err := run([]string{"-experiment", name}); err == nil {
			t.Fatalf("deleted experiment %q should be unknown", name)
		}
	}
}

func TestRunExperimentList(t *testing.T) {
	// table1 is pure arithmetic (no solves), so a list that includes it
	// exercises the comma-separated selection cheaply.
	if err := run([]string{"-experiment", "table1,nope"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-threads", "x"}); err == nil {
		t.Fatal("expected thread parse error")
	}
}

func TestSmokeRejectsPaper(t *testing.T) {
	if err := run([]string{"-experiment", "kernel", "-smoke", "-paper"}); err == nil {
		t.Fatal("-smoke -paper should be rejected")
	}
}

// TestRunSmoke executes the CI smoke pass through the bench tool (tiny
// meshes, one inner). Skipped under -short: scripts/ci.sh invokes the
// identical command directly, so the short suite need not pay for it
// twice.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ci.sh runs `unsnap-bench -experiment kernel -smoke` directly")
	}
	if err := run([]string{"-experiment", "kernel", "-smoke"}); err != nil {
		t.Fatal(err)
	}
}
