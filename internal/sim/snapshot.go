// Deterministic engine snapshot/restore: CaptureAt runs a configuration
// to a round barrier and freezes the complete engine state — gain
// journals and rumor sets, the delivery calendar (bucket ring + overflow
// heap), per-node protocol and loss-draw RNG stream cursors, the
// adversity cursor, the informed tally and transport counters. Resume
// rebuilds a fresh engine from an equivalent configuration and splices
// the frozen state over it, so the continued run is bit-identical to a
// cold run that never stopped — or, when the resume configuration
// diverges in the permitted knobs, a deterministic fork of the shared
// prefix. One snapshot can be resumed many times, concurrently: the
// captured engine is never mutated again.
package sim

import (
	"fmt"
	"slices"
)

// StateCloner is the Protocol extension snapshotting requires: a freshly
// constructed protocol instance is asked to copy the mutable state of
// the frozen source instance for the same node. The source belongs to a
// finished capture run and must only be read; anything reachable from a
// previously returned Meta() value must be treated as immutable (meta
// snapshots captured by in-flight exchanges are shared across resumes).
// State derived purely from construction inputs (topology, known
// latencies, options) need not be copied — the factory already rebuilt
// it identically.
type StateCloner interface {
	CloneStateFrom(src Protocol)
}

// Snapshot is a frozen engine at a round barrier, produced by CaptureAt.
// It is immutable and safe for concurrent Resume calls.
type Snapshot struct {
	src   *engine // frozen capture engine; nil when done
	round int
	done  bool
	res   Result
}

// CaptureAt runs cfg until the first processed round >= atRound and
// freezes the engine there. The prefix runs under stop as usual; if the
// run finishes (stop holds, quiescence, or the horizon) before reaching
// atRound the snapshot is marked Done and carries the final result,
// which every Resume then returns as-is — a fork past the end of a run
// is just the run. Every protocol the factory builds must implement
// StateCloner.
func CaptureAt(cfg Config, factory Factory, stop StopFunc, atRound int) (*Snapshot, error) {
	if atRound < 0 {
		return nil, fmt.Errorf("sim: capture round %d is negative", atRound)
	}
	e, err := newEngine(cfg, factory)
	if err != nil {
		return nil, err
	}
	for u := 0; u < e.n; u++ {
		if _, ok := e.protos[u].(StateCloner); !ok {
			return nil, fmt.Errorf("sim: protocol %T does not implement StateCloner and cannot be snapshotted", e.protos[u])
		}
	}
	e.snapAt = atRound
	res, err := e.run(stop)
	if err != nil {
		return nil, err
	}
	if !e.snapped {
		return &Snapshot{done: true, res: res, round: res.Rounds}, nil
	}
	return &Snapshot{src: e, round: e.snapRound}, nil
}

// Round is the barrier round actually captured (>= the requested round
// when the event loop jumped over it), or the final round when Done.
func (s *Snapshot) Round() int { return s.round }

// Done reports that the capture run finished before reaching the
// requested round; Resume returns its final result directly.
func (s *Snapshot) Done() bool { return s.done }

// Resume continues the frozen run under cfg with a fresh engine. cfg
// must agree with the capture configuration on everything that shaped
// the prefix — topology (the same CSR value), Seed, KnownLatencies,
// Mode, Source/Sources, InitialRumors, LatencyJitter — and may diverge
// on Workers, MaxRounds, MaxInPerRound and Adversity. With an identical
// configuration the continued run is bit-identical to a cold run at any
// worker count.
//
// Adversity divergence semantics: the prefix ran under the capture
// schedule — in-flight exchange fates carry over unchanged — and the
// diverged schedule governs from the fork round on.
// Diverged-schedule events scheduled before the fork round are skipped,
// and loss draws come from fresh per-node streams, so a diverged resume
// is deterministic but is not claimed equal to any cold run. Place
// diverged events at or after the fork round for sane semantics.
func (s *Snapshot) Resume(cfg Config, factory Factory, stop StopFunc) (Result, error) {
	if s.done {
		return s.res, nil
	}
	e, err := s.restore(cfg, factory)
	if err != nil {
		return Result{}, err
	}
	return e.run(stop)
}

// restore builds a fresh engine for cfg and splices the frozen state over
// it, positioned to re-enter the loop at the snapshot round.
func (s *Snapshot) restore(cfg Config, factory Factory) (*engine, error) {
	src := s.src
	e, err := newEngine(cfg, factory)
	if err != nil {
		return nil, err
	}
	if err := compatible(&src.cfg, &e.cfg); err != nil {
		return nil, err
	}
	if e.cfg.MaxRounds < s.round {
		return nil, fmt.Errorf("sim: resume horizon %d is before the snapshot round %d", e.cfg.MaxRounds, s.round)
	}

	// Per-node state: rumor set + journal, protocol RNG cursors,
	// protocol-private state; then the flat tables (discovered latencies,
	// wake and informed rounds, delta marks).
	for u := 0; u < e.n; u++ {
		dst, so := e.views[u], src.views[u]
		dst.rum = append(dst.rum[:0], so.rum...)
		dst.journal = append(e.emptyJournal(dst), so.journal...)
		e.jlen[u] = int32(len(dst.journal))
		e.pcgArena[u] = src.pcgArena[u]
		cl, ok := e.protos[u].(StateCloner)
		if !ok {
			return nil, fmt.Errorf("sim: protocol %T does not implement StateCloner and cannot be restored", e.protos[u])
		}
		cl.CloneStateFrom(src.protos[u])
	}
	copy(e.known, src.known)
	copy(e.wake, src.wake)
	copy(e.informedAt, src.informedAt)
	if e.sent != nil {
		copy(e.sent, src.sent)
	}
	e.world.informed = src.world.informed.Clone()

	// Calendar: every pending exchange, in (deliver, seq) order — the
	// order cold execution appended them — re-scheduled relative to the
	// barrier round. Ring geometry is identical (same topology, same
	// jitter setting), so a ring bucket holds exactly one delivery round,
	// already in seq order, and only the overflow heap needs sorting.
	// Walking the ring from the barrier round, each round's overflow
	// exchanges (scheduled earlier, so lower seq) go first.
	far := slices.Clone(src.overflow)
	slices.SortFunc(far, func(a, b exch) int { return dueOrder(&a, &b) })
	resched := func(pending *exch) {
		ex := e.slot(int(pending.deliver), s.round)
		*ex = *pending
		e.commit(ex)
	}
	for d := s.round; d < s.round+len(src.ring); d++ {
		bucket := src.ring[d&src.ringMask]
		e.fill = len(bucket)
		for ; len(far) > 0 && int(far[0].deliver) == d; far = far[1:] {
			resched(&far[0])
		}
		for i := range bucket {
			resched(&bucket[i])
		}
	}
	e.fill = 0
	for i := range far {
		resched(&far[i])
	}
	// The re-scheduled exchanges carry metadata handles into the capture
	// engine's table: carry the table with them, hold counts and free
	// slots included. Its versions belong to the frozen source and are
	// never written again; the restored producers' next samples are new
	// slices, interned into free or new slots.
	e.metas, e.metaRefs = append(e.metas[:0], src.metas...), append(e.metaRefs[:0], src.metaRefs...)
	e.metaFree = append(e.metaFree[:0], src.metaFree...)

	// Counters and cursors. Rounds/Completed are set when the run ends;
	// InformedAt/World already point at this engine's fresh slices.
	e.seq = src.seq
	e.res.Exchanges = src.res.Exchanges
	e.res.Messages = src.res.Messages
	e.res.Dropped = src.res.Dropped
	e.res.Delivered = src.res.Delivered
	e.res.RumorPayload = src.res.RumorPayload
	e.jitterPCG = src.jitterPCG

	if sameSpec(cfg.Adversity, src.cfg.Adversity) {
		// Same schedule: events recompiled identically, cursor and loss
		// stream positions carry over — the bit-identical path.
		e.nextAdvEvent = src.nextAdvEvent
		if src.advPCG != nil {
			copy(e.advPCG, src.advPCG)
		}
	} else {
		// Diverged schedule: it governs from the fork round on. Events it
		// placed before the barrier never happen (the prefix already ran
		// under the capture schedule); events at the barrier round apply.
		for e.nextAdvEvent < len(e.advEvents) && e.advEvents[e.nextAdvEvent].Round < s.round {
			e.nextAdvEvent++
		}
	}

	e.startRound = s.round
	return e, nil
}

// sameSpec reports whether a resume reuses the capture run's adversity
// spec (identity, not structural equality: cursor carry-over is only
// meaningful for the exact schedule the prefix ran under).
func sameSpec(a, b any) bool { return a == b }

// compatible checks that a resume configuration matches the capture
// configuration on every field that shaped the prefix. Both configs are
// post-normalization (newEngine defaults applied).
func compatible(capture, resume *Config) error {
	switch {
	case resume.CSR != capture.CSR:
		return fmt.Errorf("sim: resume topology differs from the snapshot's (the same CSR value is required)")
	case resume.Seed != capture.Seed:
		return fmt.Errorf("sim: resume seed %d differs from the snapshot's %d", resume.Seed, capture.Seed)
	case resume.KnownLatencies != capture.KnownLatencies:
		return fmt.Errorf("sim: resume known-latencies mode differs from the snapshot's")
	case resume.Mode != capture.Mode:
		return fmt.Errorf("sim: resume rumor mode differs from the snapshot's")
	case resume.Source != capture.Source:
		return fmt.Errorf("sim: resume source %d differs from the snapshot's %d", resume.Source, capture.Source)
	case !slices.Equal(resume.Sources, capture.Sources):
		return fmt.Errorf("sim: resume sources differ from the snapshot's")
	case !sameRumorSeed(resume, capture):
		return fmt.Errorf("sim: resume initial rumors differ from the snapshot's (same slice required)")
	case resume.LatencyJitter != capture.LatencyJitter:
		return fmt.Errorf("sim: resume latency jitter %v differs from the snapshot's %v", resume.LatencyJitter, capture.LatencyJitter)
	}
	return nil
}

// sameRumorSeed compares InitialRumors by identity: the sets seeded the
// prefix, so a resume must hand back the very same slice (or none).
func sameRumorSeed(a, b *Config) bool {
	if len(a.InitialRumors) != len(b.InitialRumors) {
		return false
	}
	return len(a.InitialRumors) == 0 || &a.InitialRumors[0] == &b.InitialRumors[0]
}
