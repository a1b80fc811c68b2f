package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"gossip/internal/curve"
	"gossip/internal/gossip"
	"gossip/internal/server/api"
)

// The NDJSON wire types live in internal/server/api (shared with the
// gossipd CLI, loadgen and the tests); this file keeps the server-side
// aliases and the deterministic rendering helpers.
const (
	SchemaVersion = api.SchemaVersion
	ContentType   = api.ContentType
	CacheHeader   = api.CacheHeader
)

// defaultProgressPoints is the informed-curve cap a request gets when
// it does not set progress_points — the historical 32-line shape.
// maxProgressPoints bounds what a request may ask for. Bodies are
// cached at full resolution regardless (the estimator needs every
// change point); the cap is applied when a body is served
// (sampleStream), so it is an execution knob outside the cache key.
const (
	defaultProgressPoints = 32
	maxProgressPoints     = 4096
)

// mustLine marshals one event and appends the newline. Events are plain
// structs of scalars; a marshal failure is a programming error.
func mustLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("server: event marshal: %v", err))
	}
	return append(b, '\n')
}

// accepted is the event that opens every stream (sweeps add their
// variant count and fork round).
func accepted(driver, key string) api.Accepted {
	return api.Accepted{SchemaVersion: SchemaVersion, Event: "accepted", Driver: driver, RequestKey: key}
}

func errorLine(msg string) []byte {
	return mustLine(api.Error{
		SchemaVersion: SchemaVersion,
		Event:         "error",
		Error:         api.ErrorDetail{Message: msg},
	})
}

// jobTail renders everything after the accepted line of one simulation
// job's stream: the error event, or the curve and the result.
func jobTail(res gossip.DriverResult, err error) []byte {
	if err != nil {
		return errorLine(err.Error())
	}
	return resultLines(res)
}

// resultLines renders the deterministic tail of a successful stream:
// the full-resolution informed-count curve followed by the result
// event. Cached bodies keep every change point; serving samples them
// down to the request's progress_points (sampleStream).
func resultLines(res gossip.DriverResult) []byte {
	pts := curve.FromInformedAt(res.InformedAt)
	out := make([]byte, 0, 72*len(pts)+224)
	for _, p := range pts {
		out = appendProgress(out, api.Progress{
			SchemaVersion: SchemaVersion,
			Event:         "progress",
			Round:         p.Round,
			// Engine-derived curves are integral counts.
			Informed: int(p.Informed),
		})
	}
	return appendResult(out, api.Result{
		SchemaVersion: SchemaVersion,
		Event:         "result",
		Result: api.JobResult{
			Rounds:       res.Rounds,
			Completed:    res.Completed,
			Exchanges:    res.Exchanges,
			Messages:     res.Messages,
			Dropped:      res.Dropped,
			Delivered:    res.Delivered,
			RumorPayload: res.RumorPayload,
			Winner:       res.Winner,
		},
	})
}

// The three lines every simulation stream is made of — accepted,
// progress and result — are rendered by appending bytes, not by
// reflection: they are most of what a miss writes. Each renders exactly
// what mustLine renders for the same value (FuzzEventLines checks it).

// acceptedLine renders the accepted event that opens a stream.
func acceptedLine(a api.Accepted) []byte {
	b := make([]byte, 0, 160)
	b = appendHead(b, a.SchemaVersion, a.Event)
	b = append(b, `,"driver":`...)
	b = appendString(b, a.Driver)
	b = append(b, `,"request_key":`...)
	b = appendString(b, a.RequestKey)
	if a.Variants != 0 {
		b = append(b, `,"variants":`...)
		b = strconv.AppendInt(b, int64(a.Variants), 10)
	}
	if a.ForkRound != nil {
		b = append(b, `,"fork_round":`...)
		b = strconv.AppendInt(b, int64(*a.ForkRound), 10)
	}
	return append(b, "}\n"...)
}

// appendProgress appends one curve point's line to b.
func appendProgress(b []byte, p api.Progress) []byte {
	b = appendHead(b, p.SchemaVersion, p.Event)
	b = append(b, `,"round":`...)
	b = strconv.AppendInt(b, int64(p.Round), 10)
	b = append(b, `,"informed":`...)
	b = strconv.AppendInt(b, int64(p.Informed), 10)
	return append(b, "}\n"...)
}

// appendResult appends a result event's line to b.
func appendResult(b []byte, r api.Result) []byte {
	j := r.Result
	b = appendHead(b, r.SchemaVersion, r.Event)
	b = append(b, `,"result":{"rounds":`...)
	b = strconv.AppendInt(b, int64(j.Rounds), 10)
	b = append(b, `,"completed":`...)
	b = strconv.AppendBool(b, j.Completed)
	b = append(b, `,"exchanges":`...)
	b = strconv.AppendInt(b, j.Exchanges, 10)
	if j.Messages != 0 {
		b = append(b, `,"messages":`...)
		b = strconv.AppendInt(b, j.Messages, 10)
	}
	b = append(b, `,"dropped":`...)
	b = strconv.AppendInt(b, j.Dropped, 10)
	b = append(b, `,"delivered":`...)
	b = strconv.AppendInt(b, j.Delivered, 10)
	b = append(b, `,"rumor_payload":`...)
	b = strconv.AppendInt(b, j.RumorPayload, 10)
	if j.Winner != "" {
		b = append(b, `,"winner":`...)
		b = appendString(b, j.Winner)
	}
	return append(b, "}}\n"...)
}

// appendHead opens an event object with the two fields every event
// starts with.
func appendHead(b []byte, version int, event string) []byte {
	b = append(b, `{"schema_version":`...)
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(b, `,"event":`...)
	return appendString(b, event)
}

// appendString appends s as a JSON string. Driver names, request keys
// and winners are printable ASCII that encoding/json copies verbatim;
// anything it would escape (quotes, control bytes, HTML characters,
// non-ASCII) goes through json.Marshal, so the bytes always match.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// progressPrefix identifies curve progress lines inside a rendered body
// byte-cheaply. The server renders every such line itself
// (appendProgress), so the layout is exact; estimate progress events carry
// "stage" where "round" sits and estimate bodies never flow through
// sampling anyway.
var progressPrefix = []byte(`{"schema_version":` + strconv.Itoa(SchemaVersion) + `,"event":"progress","round":`)

// sampleStream rewrites a full-resolution body for serving: every
// maximal run of consecutive progress lines (one run per simulation,
// one per variant in a sweep body) is evenly sampled down to at most
// max lines, the first and last always kept — the same selection
// curve.Sample makes on points. A body whose runs already fit is
// returned unchanged, so default-shaped bodies serve with zero copies;
// max 0 (estimate bodies, whose progress events are scored candidates)
// serves verbatim.
func sampleStream(body []byte, max int) []byte {
	if max < 2 {
		return body
	}
	var out []byte
	changed := false
	for i := 0; i < len(body); {
		if !bytes.HasPrefix(body[i:], progressPrefix) {
			j := lineEnd(body, i)
			if changed {
				out = append(out, body[i:j]...)
			}
			i = j
			continue
		}
		start := i
		var starts []int
		for i < len(body) && bytes.HasPrefix(body[i:], progressPrefix) {
			starts = append(starts, i)
			i = lineEnd(body, i)
		}
		if len(starts) <= max {
			if changed {
				out = append(out, body[start:i]...)
			}
			continue
		}
		if !changed {
			changed = true
			out = append(out, body[:start]...)
		}
		for k := 0; k < max; k++ {
			ls := starts[k*(len(starts)-1)/(max-1)]
			out = append(out, body[ls:lineEnd(body, ls)]...)
		}
	}
	if !changed {
		return body
	}
	return out
}

// lineEnd returns the index one past line i's newline (or len(b) for an
// unterminated final line).
func lineEnd(b []byte, i int) int {
	j := bytes.IndexByte(b[i:], '\n')
	if j < 0 {
		return len(b)
	}
	return i + j + 1
}
