package gossip

import (
	"errors"
	"os"
	"strings"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graphgen"
)

// TestSpawnJoin: join hands back the arm's value and error unchanged, and
// an arm whose joiner never joins (the joining goroutine panicked first)
// still runs to its end without blocking.
func TestSpawnJoin(t *testing.T) {
	errArm := errors.New("arm failed")
	join := spawn(func() (int, error) { return 7, errArm })
	if v, err := join(); v != 7 || err != errArm {
		t.Fatalf("join = %d, %v; want 7, %v", v, err, errArm)
	}
	done := make(chan struct{})
	_ = spawn(func() (int, error) { close(done); return 0, nil })
	<-done
}

// TestSpawnRepanicsOnJoin: a panic on the arm goroutine comes back on the
// joining goroutine, with the original value, where a recover catches it,
// and the stack written to stderr is the arm's, not the joiner's.
func TestSpawnRepanicsOnJoin(t *testing.T) {
	join := spawn(panickingArm)
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	defer func() {
		os.Stderr = saved
		if p := recover(); p != (armPanic{"push-pull"}) {
			t.Fatalf("recovered %#v, want the arm's own panic value", p)
		}
		written, err := os.ReadFile(stderr.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(written), "gossip.panickingArm") {
			t.Fatalf("stderr does not hold the arm's stack:\n%s", written)
		}
	}()
	join()
	t.Fatal("join returned after the arm panicked")
}

type armPanic struct{ arm string }

func panickingArm() (int, error) { panic(armPanic{"push-pull"}) }

// TestUnifiedMatchesArmsInSequence: running the arms side by side changes
// nothing they report. Each arm run alone through the registry, push-pull
// on Seed and the spanner pipeline on Seed+1, gives the figures the auto
// driver folds, on the sim-latency ring and under a fault schedule.
func TestUnifiedMatchesArmsInSequence(t *testing.T) {
	ring, err := graphgen.BuildCSR(graphgen.Spec{Family: "ring", N: 16, Layers: 4, Latency: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*adversity.Spec{nil, adversity.MustParseSpec("loss=0.1;churn=3:4-20")} {
		for seed := uint64(1); seed <= 3; seed++ {
			exec := ExecOptions{CSR: ring, Adversity: spec}
			u, err := Unified(DriverOptions{KnownLatencies: true, Seed: seed, ExecOptions: exec})
			if err != nil {
				t.Fatal(err)
			}
			pp, err := Dispatch("push-pull", nil, DriverOptions{Seed: seed, ExecOptions: exec})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := Dispatch("spanner", nil, DriverOptions{KnownLatencies: true, Seed: seed + 1, ExecOptions: exec})
			if err != nil {
				t.Fatal(err)
			}
			got := [4]int64{int64(u.PushPull.Rounds), u.PushPull.Exchanges, int64(u.Spanner.Rounds), u.Spanner.Exchanges}
			want := [4]int64{int64(pp.Rounds), pp.Exchanges, int64(sp.Rounds), sp.Exchanges}
			if got != want {
				t.Fatalf("spec %v seed %d: side by side %v, in sequence %v", spec, seed, got, want)
			}
		}
	}
}

// TestUnifiedReportsPushPullErrorFirst: when both arms fail, the error is
// the push-pull arm's, as it was when the arms ran one after the other.
func TestUnifiedReportsPushPullErrorFirst(t *testing.T) {
	g := graphgen.Dumbbell(8, 4)
	bad := adversity.MustParseSpec("churn=4000:2-5") // node 4000 is not in the graph
	_, err := Unified(DriverOptions{Seed: 1, ExecOptions: ExecOptions{CSR: g.CSR(), Adversity: bad}})
	if err == nil || !strings.Contains(err.Error(), "push-pull arm") {
		t.Fatalf("error %v, want the push-pull arm's", err)
	}
}
