// Sensor network aggregation: ℓ-local broadcast on a radio grid with
// degraded links.
//
// A field of sensors forms a grid; each sensor must exchange readings
// with its radio neighbors (the paper's local broadcast primitive) before
// an aggregate can be escalated. Some links are degraded — rain fade,
// interference — and have much higher latency. The example runs the
// ℓ-DTG deterministic local broadcast at several latency thresholds ℓ,
// showing the paper's trade-off: a small ℓ finishes fast but skips
// degraded neighbors, a large ℓ covers everyone but pays the slow links.
//
// Run with:
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"gossip/internal/gossip"
	"gossip/internal/graphgen"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const rows, cols = 6, 6
	const degradedLatency = 12

	// Build the radio grid and degrade every fifth link.
	g := graphgen.Grid(rows, cols, 1)
	degraded := 0
	for i, e := range g.Edges() {
		if i%5 == 0 {
			if err := g.SetLatency(e.U, e.V, degradedLatency); err != nil {
				return err
			}
			degraded++
		}
	}
	fmt.Fprintf(w, "sensor grid %dx%d: %d links, %d degraded (latency %d), rest latency 1\n",
		rows, cols, g.M(), degraded, degradedLatency)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-4s %-18s %-10s %-22s\n", "ℓ", "rounds (ℓ-DTG)", "complete", "neighbors covered")

	for _, ell := range []int{1, 4, degradedLatency} {
		res, err := gossip.Dispatch("dtg", g, gossip.DriverOptions{Ell: ell, Seed: 3, MaxRounds: 1 << 20})
		if err != nil {
			return err
		}
		// Count how many (node, neighbor) obligations the threshold
		// covers and how many were met.
		covered, met := 0, 0
		rumors := res.Sim.FinalRumors()
		for _, e := range g.Edges() {
			if e.Latency > ell {
				continue
			}
			covered += 2
			if rumors[e.U].Contains(e.V) {
				met++
			}
			if rumors[e.V].Contains(e.U) {
				met++
			}
		}
		fmt.Fprintf(w, "%-4d %-18d %-10v %d/%d within ℓ (of %d total)\n",
			ell, res.Rounds, res.Completed, met, covered, 2*g.M())
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "escalating: full dissemination of all readings to every sensor")
	res, err := gossip.Dispatch("pattern", g, gossip.DriverOptions{Seed: 3})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pattern broadcast (no global knowledge needed): %d rounds, complete=%v, final k=%d\n",
		res.Rounds, res.Completed, res.Broadcast.FinalGuess)
	fmt.Fprintln(w, "the T(k) schedule hugs fast links and touches degraded links as rarely as possible")
	return nil
}
