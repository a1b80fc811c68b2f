package gossip

import (
	"errors"
	"reflect"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// warmFingerprint is everything a DriverResult pins down; two runs with
// equal fingerprints took the same trajectory.
type warmFingerprint struct {
	Rounds       int
	Completed    bool
	Exchanges    int64
	Messages     int64
	Dropped      int64
	Delivered    int64
	RumorPayload int64
	InformedAt   []int
}

func fingerprint(r DriverResult) warmFingerprint {
	return warmFingerprint{r.Rounds, r.Completed, r.Exchanges, r.Messages, r.Dropped, r.Delivered, r.RumorPayload, r.InformedAt}
}

// TestWarmStartBitIdentical is the fork-equivalence gate at the driver
// layer: for every single-phase driver under benign, lossy and churny
// schedules, a cold run must equal capture-at-half/resume — in every
// cross combination of capture and resume worker counts.
func TestWarmStartBitIdentical(t *testing.T) {
	g := graphgen.Grid(6, 6, 2)
	specs := map[string]string{
		"benign": "",
		"lossy":  "loss=0.2",
		"churny": "churn=2:3-9:amnesia;churn=5:4-12",
	}
	for _, driver := range []string{"push-pull", "flood", "dtg", "superstep", "rr"} {
		for specName, spec := range specs {
			t.Run(driver+"/"+specName, func(t *testing.T) {
				opts := DriverOptions{Source: 0, Seed: 11, MaxRounds: 1 << 14}
				if spec != "" {
					opts.Adversity = adversity.MustParseSpec(spec)
				}
				if driver == "superstep" {
					opts.LBTimeout = 8
				}
				cold, err := Dispatch(driver, g, opts)
				if err != nil {
					t.Fatal(err)
				}
				fork := cold.Rounds / 2
				for _, cw := range []int{1, 8} {
					base := opts
					base.Workers = cw
					w, err := Fork(driver, onCSR(g, base), fork)
					if err != nil {
						t.Fatal(err)
					}
					for _, rw := range []int{1, 8} {
						variant := opts
						variant.Workers = rw
						warm, err := w.Resume(variant)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(fingerprint(warm), fingerprint(cold)) {
							t.Fatalf("capture@w%d/resume@w%d diverges from cold:\n warm %+v\n cold %+v",
								cw, rw, fingerprint(warm), fingerprint(cold))
						}
					}
				}
			})
		}
	}
}

// TestWarmStartDivergedFaultSpec pins the sweep use case: many resumes
// of one prefix under different fault schedules are (a) deterministic —
// identical overlays agree — and (b) actually diverge from the base
// trajectory when the overlay bites.
func TestWarmStartDivergedFaultSpec(t *testing.T) {
	g := graphgen.Grid(6, 6, 2)
	opts := DriverOptions{Source: 0, Seed: 7, MaxRounds: 1 << 14}
	cold, err := Dispatch("push-pull", g, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Fork("push-pull", onCSR(g, opts), cold.Rounds/2)
	if err != nil {
		t.Fatal(err)
	}
	lossy := opts
	lossy.Adversity = adversity.MustParseSpec("loss=0.5")
	a, err := w.Resume(lossy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Resume(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(a), fingerprint(b)) {
		t.Fatalf("identical diverged resumes disagree:\n %+v\n %+v", fingerprint(a), fingerprint(b))
	}
	if a.Dropped == 0 {
		t.Fatal("loss=0.5 overlay applied from the fork round dropped nothing")
	}
	same, err := w.Resume(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(same), fingerprint(cold)) {
		t.Fatalf("undiverged resume after diverged ones no longer matches cold:\n %+v\n %+v",
			fingerprint(same), fingerprint(cold))
	}
}

// TestWarmStartErrors walks the refusal surface: unknown drivers,
// pipelines without a Prepare hook, and variants that disagree with the
// prefix on a frozen knob.
func TestWarmStartErrors(t *testing.T) {
	g := graphgen.Clique(8, 1)
	opts := DriverOptions{Source: 0, Seed: 3, MaxRounds: 1 << 12}
	if _, err := Fork("no-such-driver", onCSR(g, opts), 4); err == nil {
		t.Fatal("unknown driver forked")
	}
	for _, pipeline := range []string{"spanner", "pattern", "auto"} {
		if _, err := Fork(pipeline, onCSR(g, opts), 4); !errors.Is(err, ErrNoWarmStart) {
			t.Fatalf("%s: want ErrNoWarmStart, got %v", pipeline, err)
		}
		if d, _ := Lookup(pipeline); d.WarmStart() {
			t.Fatalf("%s claims warm-start support", pipeline)
		}
	}
	w, err := Fork("push-pull", onCSR(g, opts), 2)
	if err != nil {
		t.Fatal(err)
	}
	reseeded := opts
	reseeded.Seed = 4
	if _, err := w.Resume(reseeded); err == nil {
		t.Fatal("reseeded variant resumed")
	}
	short := opts
	short.MaxRounds = 1
	if _, err := w.Resume(short); err == nil {
		t.Fatal("variant with horizon before the fork round resumed")
	}
}

// TestWarmStartDoneFork: a fork past the end of the run degenerates to
// the run itself, for every variant.
func TestWarmStartDoneFork(t *testing.T) {
	g := graphgen.Clique(8, 1)
	opts := DriverOptions{Source: 0, Seed: 3, MaxRounds: 1 << 12}
	cold, err := Dispatch("push-pull", g, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Fork("push-pull", onCSR(g, opts), cold.Rounds+50)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Done() || w.Round() != cold.Rounds {
		t.Fatalf("want done prefix at round %d, got done=%v round=%d", cold.Rounds, w.Done(), w.Round())
	}
	res, err := w.Resume(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(res), fingerprint(cold)) {
		t.Fatalf("done resume differs from the finished run")
	}
}

// TestNewsWindowsAcrossModes pins the engine's per-round news scratch
// (the journal windows a due exchange delivers, captured serially at the
// drain and read by every shard): on latency-mixed graphs, where one
// round drains exchanges initiated in many earlier rounds, with
// MetaProducer protocols whose metadata rides every exchange, a serial
// run, a 4-worker run and a capture/resume across the two must agree.
func TestNewsWindowsAcrossModes(t *testing.T) {
	rng := graphgen.NewRand(21)
	er, err := graphgen.ErdosRenyi(40, 0.2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(er, 1, 8, rng)
	grid := graphgen.Grid(6, 6, 1)
	graphgen.AssignRandomLatencies(grid, 1, 5, rng)
	churny := adversity.MustParseSpec("churn=3:4-20:amnesia;loss=0.1")
	rows := []struct {
		name, driver string
		g            *graph.Graph
		opts         DriverOptions
	}{
		{"dtg/er", "dtg", er, DriverOptions{Ell: 8}},
		{"dtg/grid", "dtg", grid, DriverOptions{}},
		{"dtg/er-churny", "dtg", er, DriverOptions{Ell: 8, ExecOptions: ExecOptions{Adversity: churny}}},
		{"superstep/er", "superstep", er, DriverOptions{LBTimeout: 8}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opts := row.opts
			opts.Seed, opts.MaxRounds = 9, 1<<16
			serial, err := Dispatch(row.driver, row.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Delivered == 0 {
				t.Fatal("nothing delivered")
			}
			par := opts
			par.Workers = 4
			parallel, err := Dispatch(row.driver, row.g, par)
			if err != nil {
				t.Fatal(err)
			}
			w, err := Fork(row.driver, onCSR(row.g, opts), serial.Rounds/2)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := w.Resume(par)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(serial)
			for mode, got := range map[string]DriverResult{"workers 4": parallel, "capture/resume": resumed} {
				if !reflect.DeepEqual(fingerprint(got), want) {
					t.Fatalf("%s diverges from serial:\n got  %+v\n want %+v", mode, fingerprint(got), want)
				}
			}
		})
	}
}
