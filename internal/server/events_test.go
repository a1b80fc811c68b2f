package server

import (
	"bytes"
	"testing"

	"gossip/internal/server/api"
)

// FuzzEventLines holds the hand-rolled accepted, progress and result
// renderers to encoding/json: for any field values — zero and non-zero
// omitempty fields, negative counts, strings that need JSON or HTML
// escaping or are not UTF-8 — each line is byte-identical to mustLine
// of the same api value.
func FuzzEventLines(f *testing.F) {
	f.Add(2, "push-pull", "0123abcd", 0, 0, false, 0, 0, 0, false, int64(0), int64(0), int64(0), int64(0), int64(0), "")
	f.Add(2, "auto", "k", 3, 7, true, 12, 64, 40, true, int64(900), int64(17), int64(2), int64(880), int64(4000), "spanner")
	f.Add(-1, "a\"b\\c", "<key>&", -5, -9, true, -3, -4, -7, false, int64(-1), int64(-2), int64(-3), int64(-4), int64(-5), "<script>&  ")
	f.Add(0, "\x00\x1f\b\f\n\r\t\x7f", "\xff\xfe", 1, 0, true, 1, 1, 1, true, int64(1), int64(0), int64(1), int64(1), int64(1), "\xffwinner\x01é")
	f.Fuzz(func(t *testing.T, version int, driver, key string, variants, forkRound int, hasFork bool,
		round, informed, rounds int, completed bool, exchanges, messages, dropped, delivered, payload int64, winner string) {
		acc := api.Accepted{SchemaVersion: version, Event: "accepted", Driver: driver, RequestKey: key, Variants: variants}
		if hasFork {
			acc.ForkRound = &forkRound
		}
		sameLine(t, "accepted", acceptedLine(acc), mustLine(acc))

		prog := api.Progress{SchemaVersion: version, Event: driver, Round: round, Informed: informed}
		sameLine(t, "progress", appendProgress(nil, prog), mustLine(prog))

		res := api.Result{SchemaVersion: version, Event: key, Result: api.JobResult{
			Rounds: rounds, Completed: completed, Exchanges: exchanges, Messages: messages,
			Dropped: dropped, Delivered: delivered, RumorPayload: payload, Winner: winner,
		}}
		sameLine(t, "result", appendResult(nil, res), mustLine(res))
	})
}

func sameLine(t *testing.T, event string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s line:\n got  %q\n want %q", event, got, want)
	}
}
