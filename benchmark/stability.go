package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the stability check needs.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Better string
		Bound        float64
	} `json:"end_to_end"`
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles taken the way
// Python's statistics.quantiles(xs, n=4) takes them (exclusive method).
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// lastLine parses the result object a run printed last.
func lastLine(stdout []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parsing result line %q: %w", lines[len(lines)-1], err)
	}
	return res, nil
}

// digestOf extracts the digest a run printed.
func digestOf(stdout []byte) string {
	for _, line := range strings.Split(string(stdout), "\n") {
		if rest, ok := strings.CutPrefix(line, "digest "); ok {
			return strings.Fields(rest)[0]
		}
	}
	return ""
}

// checkStability runs two interleaved sets, A B A B …, of full end-to-end
// runs of this binary on every workload — run r of either set on seed r+1
// — and fails when a metric's median differs between the sets by more
// than its bound in the worse direction, when a run reports a failed op,
// or when the two runs on one seed print different digests. It prints the
// table committed as STABILITY.md; each run's digest goes to standard
// error.
func checkStability(out io.Writer, runs, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "| workload | metric | median A | median B | B vs A | spread A | spread B | bound | verdict |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|\n")
	unstable := 0
	for _, w := range spec.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for r := 0; r < runs; r++ {
			var digests [2]string
			for set := range sets {
				cmd := exec.Command(exe, "--workload", w.Name, "--seed", fmt.Sprint(r+1), "--seconds", fmt.Sprint(seconds), "--trace", "0")
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s run %d: %w", w.Name, r, err)
				}
				res, err := lastLine(stdout.Bytes())
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s run %d: %d of %d ops failed", w.Name, r, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				digests[set] = digestOf(stdout.Bytes())
				fmt.Fprintf(os.Stderr, "%s seed %d set %c: digest %s", w.Name, r+1, 'A'+set, digests[set])
				for _, m := range spec.EndToEnd {
					fmt.Fprintf(os.Stderr, " %s %.6g", m.Name, res.Metrics[m.Name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
			if digests[0] != digests[1] {
				return fmt.Errorf("%s seed %d: two runs printed digests %s and %s", w.Name, r+1, digests[0], digests[1])
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "UNSTABLE"
				unstable++
			}
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n", w.Name, m.Name, a, b,
				100*(b-a)/a, 100*quartileSpread(sets[0][m.Name]), 100*quartileSpread(sets[1][m.Name]), 100*m.Bound, verdict)
		}
	}
	if unstable > 0 {
		return fmt.Errorf("%d workload × metric medians moved by more than their bound between two sets of runs of the same binary", unstable)
	}
	return nil
}
