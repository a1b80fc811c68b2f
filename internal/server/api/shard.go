package api

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"gossip/internal/sim"
)

// Shard RPC wire format — the distributed-execution half of the schema.
//
// A coordinator drives each worker over one hijacked HTTP connection
// (POST ShardPath with an Upgrade handshake). After the 101 response the
// connection speaks length-prefixed binary frames, both directions:
//
//	[4-byte big-endian payload length][1-byte kind][payload]
//
// The coordinator opens with one FrameJob (JSON ShardJob). The worker
// then emits exactly one frame per round barrier — FrameRound, or
// FrameMeta for the metadata sub-barrier — and blocks until the
// coordinator relays the whole bundle back (Shards frames in shard
// order, the sender's own included). The session ends with one
// FrameResult from the worker, or FrameError from either side.
//
// Frame payloads are varint-packed (binary.AppendUvarint); the round
// frames are the hot path the distributed merge pays per barrier, so the
// encoding ships only what the remote merge cannot cheaply derive: the
// resolved neighbor, its reverse adjacency index and the latency ride
// along with each intent precisely so receivers never consult a CSR
// adjacency row during the merge. Every element takes at least one byte,
// so the decoders refuse a count larger than the bytes that remain
// instead of allocating the length a peer chose.
const (
	// ShardPath is the worker-side endpoint of the shard RPC.
	ShardPath = "/v1/cluster/shard"
	// ShardProtocol is the Upgrade token of the handshake; it carries the
	// wire-format version. Version 2 added the per-shard leader summaries
	// (LeadPre/LeadPost) to the round frame; a mixed-version fleet fails
	// the handshake instead of mis-framing.
	ShardProtocol = "gossipd-shard/2"
	// ForwardedHeader marks a simulation request forwarded by a fleet
	// member to the cache key's owner; its value is the forwarder's
	// advertised address. A request carrying it is never re-forwarded.
	ForwardedHeader = "X-Gossipd-Forwarded"
)

// Frame kinds.
const (
	FrameJob    byte = 1 // coordinator → worker: JSON ShardJob
	FrameRound  byte = 2 // both directions: one round-barrier frame
	FrameMeta   byte = 3 // both directions: one meta-sub-barrier frame
	FrameResult byte = 4 // worker → coordinator: terminal shard result
	FrameError  byte = 5 // either direction: terminal error message
)

// MaxFramePayload bounds one frame (the largest legitimate frames are a
// shard-0 result carrying InformedAt at n=2²⁰, a few MiB varint-packed).
const MaxFramePayload = 1 << 28

// ShardJob is the FrameJob payload: the worker's assignment. Request is
// the coordinator's canonical request JSON; the worker re-derives its
// own request key from it and refuses on mismatch, so a version-skewed
// fleet fails loudly instead of diverging.
type ShardJob struct {
	SchemaVersion int    `json:"schema_version"`
	Shard         int    `json:"shard"`
	Shards        int    `json:"shards"`
	RequestKey    string `json:"request_key"`
	// TimeoutMS is the coordinator's effective per-job execution timeout.
	// The worker derives its session idle window from it (plus relay
	// slack, clamped to the worker's own ceiling): once the coordinator
	// has abandoned the job, a worker waiting longer only pins a dead
	// session. Zero (an older coordinator) means the worker's ceiling.
	TimeoutMS int             `json:"timeout_ms,omitempty"`
	Request   json.RawMessage `json:"request"`
}

// ShardResult is the decoded FrameResult payload: the worker's partial
// counters (owner-attributed, summed by the coordinator), the
// shard-replicated terminal state (identical on every worker — the
// coordinator cross-checks Hash), and the worker's execution stats.
// InformedAt is shipped by shard 0 only; the other shards prove their
// replica agrees through Hash.
type ShardResult struct {
	Rounds       int
	Completed    bool
	Exchanges    int64
	Messages     int64
	Dropped      int64
	Delivered    int64
	RumorPayload int64
	Hash         uint64
	InformedAt   []int
	Stats        sim.DistStats
}

// WriteFrame emits one frame. The caller flushes any buffering.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("api: %d-byte shard frame exceeds the %d cap", len(payload), MaxFramePayload)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameReadStep is the least ReadFrame grows its buffer by; beyond it a
// buffer grows by no more than the payload bytes already received.
const frameReadStep = 64 << 10

// ReadFrame reads one frame into buf's backing array (pass a truncated
// scratch buffer to amortize allocation; the returned slice aliases it
// while it is large enough, so steady-state reads allocate nothing). The
// header's length is the peer's claim, not yet bytes: the buffer grows
// as the payload arrives, so a hostile header followed by silence costs
// one frameReadStep, never MaxFramePayload.
func ReadFrame(r io.Reader, buf []byte) (kind byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > MaxFramePayload {
		return 0, nil, fmt.Errorf("api: %d-byte shard frame exceeds the %d cap", size, MaxFramePayload)
	}
	n := int(size)
	buf = buf[:0]
	for len(buf) < n {
		have := len(buf)
		if have == cap(buf) {
			buf = append(make([]byte, 0, min(n, have+max(have, frameReadStep))), buf...)
		}
		buf = buf[:min(n, cap(buf))]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return 0, nil, err
		}
	}
	return hdr[4], buf, nil
}

// Round-frame flag bits.
const (
	flagPending     = 1 << 0
	flagIdle        = 1 << 1
	flagCalled      = 1 << 2
	flagWaiting     = 1 << 3
	flagDonePre     = 1 << 4
	flagDonePost    = 1 << 5
	flagMetaCapable = 1 << 6
)

// appendWake encodes a wake round where sim.WakeOnDelivery means
// "never": 0 is the sentinel, any real round r ships as r+1.
func appendWake(dst []byte, r int) []byte {
	if r == sim.WakeOnDelivery {
		return binary.AppendUvarint(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(r)+1)
}

func readWake(p []byte) (int, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("api: truncated wake varint")
	}
	if v == 0 {
		return sim.WakeOnDelivery, p[n:], nil
	}
	return int(v) - 1, p[n:], nil
}

// ReadUvarint consumes one uvarint from the front of a frame payload (the
// one varint reader of both frame users: the shard RPC codecs here and
// transport.TCPMesh's packet headers).
func ReadUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("api: truncated varint")
	}
	return v, p[n:], nil
}

// AppendRoundFrame varint-packs one round-barrier frame.
func AppendRoundFrame(dst []byte, f *sim.DistFrame) []byte {
	dst = binary.AppendUvarint(dst, uint64(f.Round))
	dst = binary.AppendUvarint(dst, uint64(f.Shard))
	var flags byte
	if f.Pending {
		flags |= flagPending
	}
	if f.Idle {
		flags |= flagIdle
	}
	if f.Called {
		flags |= flagCalled
	}
	if f.Waiting {
		flags |= flagWaiting
	}
	if f.DonePre {
		flags |= flagDonePre
	}
	if f.DonePost {
		flags |= flagDonePost
	}
	if f.MetaCapable {
		flags |= flagMetaCapable
	}
	dst = append(dst, flags)
	dst = appendWake(dst, f.MinWake)
	dst = appendWake(dst, f.SleeperWake)
	// NextDeliver uses -1 as "no pending delivery"; shift by one.
	dst = binary.AppendUvarint(dst, uint64(f.NextDeliver+1))
	// Leader summaries use sentinels down to sim.LeaderAgnostic (-2);
	// shift by two.
	dst = binary.AppendUvarint(dst, uint64(f.LeadPre+2))
	dst = binary.AppendUvarint(dst, uint64(f.LeadPost+2))
	dst = binary.AppendUvarint(dst, uint64(len(f.Intents)))
	for i := range f.Intents {
		in := &f.Intents[i]
		dst = binary.AppendUvarint(dst, uint64(in.U))
		dst = binary.AppendUvarint(dst, uint64(in.Idx))
		dst = binary.AppendUvarint(dst, uint64(in.V))
		dst = binary.AppendUvarint(dst, uint64(in.VIdx))
		packed := uint64(in.Lat) << 1
		if in.Lost {
			packed |= 1
		}
		dst = binary.AppendUvarint(dst, packed)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Gains)))
	for _, g := range f.Gains {
		dst = binary.AppendUvarint(dst, uint64(g.Node))
		dst = binary.AppendUvarint(dst, uint64(g.Rumor))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Err)))
	dst = append(dst, f.Err...)
	return dst
}

// DecodeRoundFrame unpacks p into f, reusing f's slice capacity.
func DecodeRoundFrame(p []byte, f *sim.DistFrame) error {
	var v uint64
	var err error
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	f.Round = int(v)
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	f.Shard = int(v)
	if len(p) < 1 {
		return fmt.Errorf("api: truncated round frame flags")
	}
	flags := p[0]
	p = p[1:]
	f.Pending = flags&flagPending != 0
	f.Idle = flags&flagIdle != 0
	f.Called = flags&flagCalled != 0
	f.Waiting = flags&flagWaiting != 0
	f.DonePre = flags&flagDonePre != 0
	f.DonePost = flags&flagDonePost != 0
	f.MetaCapable = flags&flagMetaCapable != 0
	if f.MinWake, p, err = readWake(p); err != nil {
		return err
	}
	if f.SleeperWake, p, err = readWake(p); err != nil {
		return err
	}
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	f.NextDeliver = int(v) - 1
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	f.LeadPre = int32(v) - 2
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	f.LeadPost = int32(v) - 2
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	f.Intents = f.Intents[:0]
	for i := uint64(0); i < v; i++ {
		var in sim.DistIntent
		var u uint64
		if u, p, err = ReadUvarint(p); err != nil {
			return err
		}
		in.U = int32(u)
		if u, p, err = ReadUvarint(p); err != nil {
			return err
		}
		in.Idx = int32(u)
		if u, p, err = ReadUvarint(p); err != nil {
			return err
		}
		in.V = int32(u)
		if u, p, err = ReadUvarint(p); err != nil {
			return err
		}
		in.VIdx = int32(u)
		if u, p, err = ReadUvarint(p); err != nil {
			return err
		}
		in.Lost = u&1 != 0
		in.Lat = int32(u >> 1)
		f.Intents = append(f.Intents, in)
	}
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	f.Gains = f.Gains[:0]
	for i := uint64(0); i < v; i++ {
		var g sim.DistGain
		var u uint64
		if u, p, err = ReadUvarint(p); err != nil {
			return err
		}
		g.Node = int32(u)
		if u, p, err = ReadUvarint(p); err != nil {
			return err
		}
		g.Rumor = int32(u)
		f.Gains = append(f.Gains, g)
	}
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	if uint64(len(p)) != v {
		return fmt.Errorf("api: round frame error-string length %d, %d bytes remain", v, len(p))
	}
	f.Err = string(p)
	return nil
}

// AppendMetaFrame varint-packs one meta-sub-barrier frame.
func AppendMetaFrame(dst []byte, f *sim.DistMetaFrame) []byte {
	dst = binary.AppendUvarint(dst, uint64(f.Round))
	dst = binary.AppendUvarint(dst, uint64(f.Shard))
	dst = binary.AppendUvarint(dst, uint64(len(f.Metas)))
	for i := range f.Metas {
		m := &f.Metas[i]
		dst = binary.AppendUvarint(dst, uint64(m.Node))
		dst = binary.AppendUvarint(dst, uint64(len(m.Meta)))
		for _, r := range m.Meta {
			// As its 32 bits: a negative value (a heard set's dense tag,
			// a bitmap word with bit 31 set) takes 5 bytes, not 10.
			dst = binary.AppendUvarint(dst, uint64(uint32(r)))
		}
	}
	return dst
}

// DecodeMetaFrame unpacks p into f, reusing f's outer slice capacity.
func DecodeMetaFrame(p []byte, f *sim.DistMetaFrame) error {
	var v uint64
	var err error
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	f.Round = int(v)
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	f.Shard = int(v)
	if v, p, err = ReadUvarint(p); err != nil {
		return err
	}
	f.Metas = f.Metas[:0]
	for i := uint64(0); i < v; i++ {
		var m sim.DistNodeMeta
		var u uint64
		if u, p, err = ReadUvarint(p); err != nil {
			return err
		}
		m.Node = int32(u)
		if u, p, err = ReadUvarint(p); err != nil {
			return err
		}
		if u > uint64(len(p)) {
			return fmt.Errorf("api: meta frame claims %d rumors, %d bytes remain", u, len(p))
		}
		m.Meta = make([]int32, 0, u)
		for j := uint64(0); j < u; j++ {
			var r uint64
			if r, p, err = ReadUvarint(p); err != nil {
				return err
			}
			m.Meta = append(m.Meta, int32(r))
		}
		f.Metas = append(f.Metas, m)
	}
	if len(p) != 0 {
		return fmt.Errorf("api: %d trailing bytes after meta frame", len(p))
	}
	return nil
}

// InformedHash folds the shard-replicated terminal state into the
// cross-check value every worker ships (FNV-1a over Rounds, Completed
// and the InformedAt array). Coordinator-side inequality means the
// replicas diverged — a bug, reported as an error rather than a result.
func InformedHash(rounds int, completed bool, informedAt []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(rounds))
	if completed {
		mix(1)
	} else {
		mix(0)
	}
	mix(uint64(len(informedAt)))
	for _, r := range informedAt {
		mix(uint64(int64(r)))
	}
	return h
}

// AppendShardResult varint-packs the terminal result frame.
func AppendShardResult(dst []byte, r *ShardResult) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Rounds))
	if r.Completed {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(r.Exchanges))
	dst = binary.AppendUvarint(dst, uint64(r.Messages))
	dst = binary.AppendUvarint(dst, uint64(r.Dropped))
	dst = binary.AppendUvarint(dst, uint64(r.Delivered))
	dst = binary.AppendUvarint(dst, uint64(r.RumorPayload))
	dst = binary.AppendUvarint(dst, r.Hash)
	if r.InformedAt != nil {
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(len(r.InformedAt)))
		for _, at := range r.InformedAt {
			// -1 means never informed; shift by one.
			dst = binary.AppendUvarint(dst, uint64(at+1))
		}
	} else {
		dst = append(dst, 0)
	}
	st := &r.Stats
	for _, v := range []int64{st.Rounds, st.Barriers, st.MetaBarriers, st.Intents, st.CrossIntents, st.Gains, st.ComputeNS, st.WaitNS} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// DecodeShardResult unpacks a terminal result frame.
func DecodeShardResult(p []byte) (*ShardResult, error) {
	r := &ShardResult{}
	var v uint64
	var err error
	if v, p, err = ReadUvarint(p); err != nil {
		return nil, err
	}
	r.Rounds = int(v)
	if len(p) < 1 {
		return nil, fmt.Errorf("api: truncated shard result")
	}
	r.Completed = p[0] == 1
	p = p[1:]
	for _, dst := range []*int64{&r.Exchanges, &r.Messages, &r.Dropped, &r.Delivered, &r.RumorPayload} {
		if v, p, err = ReadUvarint(p); err != nil {
			return nil, err
		}
		*dst = int64(v)
	}
	if r.Hash, p, err = ReadUvarint(p); err != nil {
		return nil, err
	}
	if len(p) < 1 {
		return nil, fmt.Errorf("api: truncated shard result")
	}
	hasInformed := p[0] == 1
	p = p[1:]
	if hasInformed {
		if v, p, err = ReadUvarint(p); err != nil {
			return nil, err
		}
		if v > uint64(len(p)) {
			return nil, fmt.Errorf("api: shard result claims %d informed rounds, %d bytes remain", v, len(p))
		}
		r.InformedAt = make([]int, v)
		for i := range r.InformedAt {
			var at uint64
			if at, p, err = ReadUvarint(p); err != nil {
				return nil, err
			}
			r.InformedAt[i] = int(at) - 1
		}
	}
	st := &r.Stats
	for _, dst := range []*int64{&st.Rounds, &st.Barriers, &st.MetaBarriers, &st.Intents, &st.CrossIntents, &st.Gains, &st.ComputeNS, &st.WaitNS} {
		if v, p, err = ReadUvarint(p); err != nil {
			return nil, err
		}
		*dst = int64(v)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("api: %d trailing bytes after shard result", len(p))
	}
	return r, nil
}
