package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graphgen"
)

// newsLogger activates a random neighbor every round and logs every
// delivery it receives, News order included, into its node's slot.
type newsLogger struct {
	nv  *NodeView
	log *[]string
}

func (p *newsLogger) Activate(int) (int, bool) { return p.nv.RNG().IntN(p.nv.Degree()), true }
func (p *newsLogger) OnDeliver(d Delivery) {
	*p.log = append(*p.log, fmt.Sprint(d.Round, d.Peer, d.NewRumors, d.News))
}

// phaseTrace is everything observable about one phase: the counters, the
// informed times, every node's journal and every delivery's news.
type phaseTrace struct {
	Rounds                                 int
	Exchanges, Dropped, Delivered, Payload int64
	InformedAt                             []int
	Journals                               [][]int32
	Deliveries                             [][]string
}

func tracePhase(res Result, logs [][]string) phaseTrace {
	tr := phaseTrace{Rounds: res.Rounds, Exchanges: res.Exchanges, Dropped: res.Dropped,
		Delivered: res.Delivered, Payload: res.RumorPayload, InformedAt: slices.Clone(res.InformedAt)}
	for _, nv := range res.World.Views {
		tr.Journals = append(tr.Journals, slices.Clone(nv.journal))
	}
	for _, l := range logs {
		tr.Deliveries = append(tr.Deliveries, slices.Clone(l))
	}
	return tr
}

// TestPipelineReloadMatchesFreshEngine: three phases on one Pipeline —
// each stopped at its horizon with exchanges still in flight, with and
// without an amnesic churn and loss schedule, serial and sharded — leave
// exactly the journals (order included), deliveries and counters that a
// fresh engine per phase seeded with the previous phase's FinalRumors
// does.
func TestPipelineReloadMatchesFreshEngine(t *testing.T) {
	csr := graphgen.Dumbbell(6, 5).CSR()
	for _, spec := range []*adversity.Spec{nil, adversity.MustParseSpec("churn=1:3-9:amnesia;churn=8:2-5;loss=0.2")} {
		for _, workers := range []int{1, 3} {
			var p Pipeline
			var prev *Result
			for phase := 0; phase < 3; phase++ {
				cfg := Config{CSR: csr, Mode: AllToAll, Seed: uint64(10 + phase), MaxRounds: 12 + phase,
					Workers: workers, Adversity: spec}
				run := func(run func(Config, Factory, StopFunc) (Result, error), cfg Config) phaseTrace {
					logs := make([][]string, csr.N())
					res, err := run(cfg, func(nv *NodeView) Protocol {
						return &newsLogger{nv: nv, log: &logs[nv.ID()]}
					}, StopNever())
					if err != nil {
						t.Fatal(err)
					}
					return tracePhase(res, logs)
				}
				got := run(p.Run, cfg)
				fresh := cfg
				if prev != nil {
					fresh.InitialRumors = prev.FinalRumors()
				}
				var freshRes Result
				want := run(func(c Config, f Factory, s StopFunc) (Result, error) {
					var err error
					freshRes, err = Run(c, f, s)
					return freshRes, err
				}, fresh)
				prev = &freshRes
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("faults %v, workers %d, phase %d: reloaded engine diverges from a fresh one:\n got  %+v\n want %+v",
						spec != nil, workers, phase, got, want)
				}
			}
		}
	}
}
