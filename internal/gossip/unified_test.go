package gossip

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"gossip/internal/adversity"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/spanner"
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

// goroutinesSettle waits until no more goroutines run than before (a
// joined goroutine may still be on its way out when its joiner returns)
// and fails the test if some never end.
func goroutinesSettle(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s left %d goroutines behind:\n%s", what, runtime.NumGoroutine()-before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpannerArmLeavesNoGoroutine: the spanner driver builds each guess's
// spanner on a goroutine of its own beside the gather, and auto runs its
// push-pull arm on another; neither outlives the call, when it succeeds
// and when its first gather phase fails at load (a fault spec naming an
// edge the graph does not have).
func TestSpannerArmLeavesNoGoroutine(t *testing.T) {
	ring, err := graphgen.BuildCSR(graphgen.Spec{Family: "ring", N: 64, Layers: 8, Latency: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := adversity.MustParseSpec("flap=0-200:1-5") // the ring has no edge (0,200)
	for _, driver := range []string{"spanner", "auto"} {
		for _, spec := range []*adversity.Spec{nil, bad} {
			before := runtime.NumGoroutine()
			_, err := Dispatch(driver, nil, DriverOptions{KnownLatencies: true, Seed: 5, ExecOptions: ExecOptions{CSR: ring, Adversity: spec}})
			if (err != nil) != (spec != nil) {
				t.Fatalf("%s, spec %v: error %v", driver, spec, err)
			}
			goroutinesSettle(t, fmt.Sprintf("%s, spec %v", driver, spec), before)
		}
	}
}

// TestSpannerArmJoinsTheBuild: the build that runs beside a gather is
// joined on every path. When both fail the gather's error is reported,
// as when the build ran after it; when only the build fails, its error;
// and a build that panics while the gather fails panics the caller, not
// a dropped goroutine.
func TestSpannerArmJoinsTheBuild(t *testing.T) {
	ring, err := graphgen.BuildCSR(graphgen.Spec{Family: "ring", N: 16, Layers: 4, Latency: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	errBuild := errors.New("build failed")
	whole := buildSpanner
	defer func() { buildSpanner = whole }()
	buildSpanner = func(*graph.CSR, spanner.Options) (*spanner.Spanner, error) { return nil, errBuild }
	bad := adversity.MustParseSpec("flap=0-33:1-5") // the ring has no edge (0,33)
	run := func(spec *adversity.Spec) error {
		_, err := Dispatch("spanner", nil, DriverOptions{KnownLatencies: true, Seed: 5, ExecOptions: ExecOptions{CSR: ring, Adversity: spec}})
		return err
	}
	if err := run(bad); err == nil || errors.Is(err, errBuild) || !strings.Contains(err.Error(), "not in the graph") {
		t.Fatalf("gather and build both failed: error %v, want the gather's", err)
	}
	if err := run(nil); !errors.Is(err, errBuild) {
		t.Fatalf("the build failed: error %v, want %v", err, errBuild)
	}
	buildSpanner = func(*graph.CSR, spanner.Options) (*spanner.Spanner, error) { panic(armPanic{"build"}) }
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = devNull // spawn writes the build's stack there
	defer func() {
		os.Stderr = saved
		if p := recover(); p != (armPanic{"build"}) {
			t.Fatalf("recovered %#v, want the build's own panic value", p)
		}
	}()
	err = run(bad)
	t.Fatalf("a build that panicked beside a failing gather returned %v", err)
}
