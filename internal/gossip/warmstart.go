package gossip

import (
	"errors"
	"fmt"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

// ErrNoWarmStart marks drivers without a Prepare hook: the multi-phase
// pipelines (spanner, pattern, auto) chain many simulations and have no
// single engine to freeze. Callers that want a comparable baseline fall
// back to a cold re-run, which the engine guarantees is bit-identical.
var ErrNoWarmStart = errors.New("gossip: driver does not support warm-start forking")

// WarmPrefix is a driver run frozen at a round barrier. One prefix can
// be resumed any number of times, concurrently, each resume continuing
// the shared prefix under its own (possibly diverged) options — the
// primitive behind POST /v1/sweeps.
type WarmPrefix struct {
	d    *Driver
	csr  *graph.CSR // the one topology the prefix and every resume run on
	snap *sim.Snapshot
}

// Fork runs the named driver under base, on base.CSR, until the first
// processed round >= atRound and freezes it there. If the run finishes
// earlier the prefix is Done and every Resume returns the finished result.
func Fork(name string, base DriverOptions, atRound int) (*WarmPrefix, error) {
	d, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("gossip: unknown driver %q", name)
	}
	if !d.WarmStart() {
		return nil, fmt.Errorf("%w (%q is a multi-phase pipeline)", ErrNoWarmStart, d.Name)
	}
	if base.CSR == nil {
		return nil, errNoTopology
	}
	cfg, factory, stop, err := d.Prepare(base)
	if err != nil {
		return nil, err
	}
	snap, err := sim.CaptureAt(cfg, factory, stop, atRound)
	if err != nil {
		return nil, err
	}
	return &WarmPrefix{d: d, csr: base.CSR, snap: snap}, nil
}

// Round is the barrier round actually captured (>= the requested round
// when the event loop jumped over it), or the final round when Done.
func (w *WarmPrefix) Round() int { return w.snap.Round() }

// Done reports that the base run finished before the fork round.
func (w *WarmPrefix) Done() bool { return w.snap.Done() }

// Resume continues the prefix under variant. The variant must agree
// with the base options on everything that shaped the prefix — same
// topology values, Seed, Source/Sources, objective, protocol parameters
// — and may diverge on Workers, MaxRounds, MaxInPerRound and Adversity
// (see sim.Snapshot.Resume for the divergence semantics). An identical
// variant reproduces the cold run bit-for-bit.
func (w *WarmPrefix) Resume(variant DriverOptions) (DriverResult, error) {
	if variant.CSR == nil {
		variant.CSR = w.csr
	}
	cfg, factory, stop, err := w.d.Prepare(variant)
	if err != nil {
		return DriverResult{}, err
	}
	return fromSimResult(w.snap.Resume(cfg, factory, stop))
}
