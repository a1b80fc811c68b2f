package api

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"

	"gossip/internal/sim"
)

func sampleRoundFrame() sim.DistFrame {
	return sim.DistFrame{
		Round: 7,
		Shard: 1,
		Intents: []sim.DistIntent{
			{U: 3, Idx: 0, V: 9, VIdx: 2, Lat: 1},
			{U: 4, Idx: 3, V: 0, VIdx: 5, Lat: 12, Lost: true},
		},
		Gains:       []sim.DistGain{{Node: 9, Rumor: 3}, {Node: 0, Rumor: 4}},
		MinWake:     10,
		SleeperWake: sim.WakeOnDelivery,
		NextDeliver: 8,
		Pending:     true,
		Idle:        true,
		Called:      true,
		Waiting:     true,
		DonePre:     true,
		DonePost:    true,
		MetaCapable: true,
		Err:         "shard says ouch",
	}
}

func TestRoundFrameRoundTrip(t *testing.T) {
	want := sampleRoundFrame()
	enc := AppendRoundFrame(nil, &want)
	var got sim.DistFrame
	if err := DecodeRoundFrame(enc, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round frame round-trip:\n got %+v\nwant %+v", got, want)
	}

	// A minimal frame (no intents, no gains, sentinel calendar) must
	// round-trip too, reusing the decode target's slice capacity.
	minimal := sim.DistFrame{Round: 0, Shard: 0, MinWake: sim.WakeOnDelivery,
		SleeperWake: sim.WakeOnDelivery, NextDeliver: -1}
	enc = AppendRoundFrame(enc[:0], &minimal)
	if err := DecodeRoundFrame(enc, &got); err != nil {
		t.Fatal(err)
	}
	if got.Round != 0 || got.NextDeliver != -1 || got.MinWake != sim.WakeOnDelivery ||
		len(got.Intents) != 0 || len(got.Gains) != 0 || got.Pending || got.Err != "" {
		t.Fatalf("minimal frame round-trip: %+v", got)
	}
}

// TestRoundFrameTruncations feeds every proper prefix of a valid
// encoding to the decoder: each must error, never panic or succeed.
func TestRoundFrameTruncations(t *testing.T) {
	f := sampleRoundFrame()
	enc := AppendRoundFrame(nil, &f)
	var got sim.DistFrame
	for i := 0; i < len(enc); i++ {
		if err := DecodeRoundFrame(enc[:i], &got); err == nil {
			t.Fatalf("decoding %d of %d bytes succeeded", i, len(enc))
		}
	}
}

// denseMeta is a node's heard set in dense form as DTG ships it: the -1
// tag, then bitmap words, three of them with bit 31 set.
var denseMeta = sim.DistNodeMeta{Node: 9, Meta: []int32{-1, -1, 0x0000ffff, -0x80000000, 0x7fffffff, -0x6f543211}}

func TestMetaFrameRoundTrip(t *testing.T) {
	want := sim.DistMetaFrame{
		Round: 4,
		Shard: 2,
		Metas: []sim.DistNodeMeta{
			{Node: 7, Meta: []int32{1, 2, 3}},
			{Node: 12, Meta: []int32{}},
			denseMeta,
		},
	}
	enc := AppendMetaFrame(nil, &want)
	var got sim.DistMetaFrame
	if err := DecodeMetaFrame(enc, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("meta frame round-trip:\n got %+v\nwant %+v", got, want)
	}
	// A negative word costs at most the 5 bytes of its 32 bits.
	dense := AppendMetaFrame(nil, &sim.DistMetaFrame{Metas: []sim.DistNodeMeta{denseMeta}})
	if limit := 5 + 5*len(denseMeta.Meta); len(dense) > limit {
		t.Fatalf("dense meta frame takes %d bytes, more than %d", len(dense), limit)
	}
	for i := 0; i < len(enc); i++ {
		if err := DecodeMetaFrame(enc[:i], &got); err == nil {
			t.Fatalf("decoding %d of %d bytes succeeded", i, len(enc))
		}
	}
	if err := DecodeMetaFrame(append(enc, 0), &got); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestShardResultRoundTrip(t *testing.T) {
	want := &ShardResult{
		Rounds:       19,
		Completed:    true,
		Exchanges:    100,
		Messages:     200,
		Dropped:      3,
		Delivered:    97,
		RumorPayload: 512,
		Hash:         0xdeadbeefcafe,
		InformedAt:   []int{0, 2, -1, 5},
		Stats: sim.DistStats{Rounds: 19, Barriers: 20, MetaBarriers: 1,
			Intents: 100, CrossIntents: 40, Gains: 50, ComputeNS: 123456, WaitNS: 7890},
	}
	enc := AppendShardResult(nil, want)
	got, err := DecodeShardResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard result round-trip:\n got %+v\nwant %+v", got, want)
	}

	// Non-shard-0 results ship no InformedAt; nil must survive.
	want.InformedAt, want.Completed = nil, false
	enc = AppendShardResult(enc[:0], want)
	if got, err = DecodeShardResult(enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard result round-trip:\n got %+v\nwant %+v", got, want)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeShardResult(enc[:i]); err == nil {
			t.Fatalf("decoding %d of %d bytes succeeded", i, len(enc))
		}
	}
	if _, err := DecodeShardResult(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestWriteReadFrame(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{7}, 1<<16)}
	kinds := []byte{FrameJob, FrameRound, FrameResult}
	for i, p := range payloads {
		if err := WriteFrame(&buf, kinds[i], p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range payloads {
		kind, p, err := ReadFrame(&buf, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		scratch = p
		if kind != kinds[i] || !bytes.Equal(p, want) {
			t.Fatalf("frame %d: kind %d payload %d bytes", i, kind, len(p))
		}
	}

	// A header advertising an over-cap payload must be rejected before
	// any allocation.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(MaxFramePayload+1))
	hdr[4] = FrameRound
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("over-cap frame header accepted")
	}
	// A failing writer's error surfaces.
	pr, pw := io.Pipe()
	pr.Close()
	if err := WriteFrame(pw, FrameRound, nil); err != io.ErrClosedPipe {
		t.Fatalf("write to a closed pipe: %v, want io.ErrClosedPipe", err)
	}
	// Truncated header and truncated payload both error.
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:3]), nil); err == nil {
		t.Fatal("truncated header accepted")
	}
	binary.BigEndian.PutUint32(hdr[:4], 10)
	short := append(append([]byte{}, hdr[:]...), 1, 2, 3)
	if _, _, err := ReadFrame(bytes.NewReader(short), nil); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// frameSeeds are TestWriteReadFrame's cases as raw wire bytes: three
// well-formed frames, an over-cap header, a truncated header, a
// truncated payload, and the hostile one — a header claiming the full
// MaxFramePayload followed by nothing.
func frameSeeds() [][]byte {
	var seeds [][]byte
	for i, p := range [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{7}, 1<<16)} {
		var buf bytes.Buffer
		WriteFrame(&buf, []byte{FrameJob, FrameRound, FrameResult}[i], p)
		seeds = append(seeds, buf.Bytes())
	}
	hdr := func(n uint32) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), FrameRound)
	}
	return append(seeds, hdr(MaxFramePayload+1), hdr(10)[:3], append(hdr(10), 1, 2, 3), hdr(MaxFramePayload))
}

// TestReadFrameHostileLength: five hostile bytes must not cost the
// 256 MiB they claim — the buffer grows only as payload bytes arrive.
func TestReadFrameHostileLength(t *testing.T) {
	seeds := frameSeeds()
	hostile := seeds[len(seeds)-1]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(hostile), nil)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*frameReadStep {
		t.Fatalf("a %d-byte input allocated %d bytes, want at most one %d-byte step", len(hostile), got, frameReadStep)
	}
	// A steady-state read into a large-enough scratch allocates no
	// buffer: its one allocation is the 5-byte header escaping through
	// the io.Reader, as before.
	frame, scratch := bytes.NewReader(seeds[2]), make([]byte, 0, 1<<16)
	if allocs := testing.AllocsPerRun(10, func() {
		frame.Seek(0, io.SeekStart)
		if _, p, err := ReadFrame(frame, scratch); err != nil || len(p) != 1<<16 {
			t.Fatal(len(p), err)
		}
	}); allocs > 1 {
		t.Fatalf("scratch-backed read allocated %v times", allocs)
	}
}

// FuzzReadFrame: bytes off a socket either fail to parse or yield
// exactly the payload they carry, in a buffer no larger than twice the
// input plus one growth step — never a panic, never a wire-chosen
// allocation.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range frameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		kind, p, err := ReadFrame(bytes.NewReader(in), nil)
		if err != nil {
			return
		}
		if kind != in[4] || !bytes.Equal(p, in[5:5+len(p)]) {
			t.Fatalf("frame kind %d payload % x does not match input % x", kind, p, in)
		}
		if cap(p) > 2*len(in)+frameReadStep {
			t.Fatalf("%d-byte input yielded a %d-byte buffer", len(in), cap(p))
		}
	})
}

// hostileCounts are a meta frame and a shard result whose element count
// is 2⁶², with nothing behind it.
func hostileCounts() (meta, result []byte) {
	meta = binary.AppendUvarint([]byte{0, 0, 1, 0}, 1<<62)  // round, shard, one node, node id, rumor count
	result = append([]byte{0, 0}, make([]byte, 6)...)       // rounds, completed, five counters and the hash
	result = binary.AppendUvarint(append(result, 1), 1<<62) // InformedAt present, its length
	return meta, result
}

// TestDecodersRejectHostileCounts: a count is the peer's claim, not yet
// bytes. One larger than the payload left must be an error, never an
// allocation of the claimed length (which panics in makeslice at 2⁶²).
func TestDecodersRejectHostileCounts(t *testing.T) {
	meta, result := hostileCounts()
	if err := DecodeMetaFrame(meta, &sim.DistMetaFrame{}); err == nil {
		t.Fatal("meta frame claiming 2^62 rumors decoded")
	}
	if _, err := DecodeShardResult(result); err == nil {
		t.Fatal("shard result claiming 2^62 informed rounds decoded")
	}
}

// FuzzDecodeShardFrames: the first byte picks the round, meta or result
// decoder for the rest. Bytes off a socket either fail to decode or
// decode to a value that re-encodes and decodes back to itself — never
// a panic, and never a slice longer than the payload that claimed it.
func FuzzDecodeShardFrames(f *testing.F) {
	round := sampleRoundFrame()
	meta := sim.DistMetaFrame{Round: 4, Shard: 2, Metas: []sim.DistNodeMeta{{Node: 7, Meta: []int32{1, 2, 3}}}}
	result := ShardResult{Rounds: 19, Completed: true, Exchanges: 100, Hash: 0xdeadbeefcafe,
		InformedAt: []int{0, 2, -1, 5}, Stats: sim.DistStats{Rounds: 19, WaitNS: 7890}}
	hostileMeta, hostileResult := hostileCounts()
	f.Add(AppendRoundFrame([]byte{0}, &round))
	f.Add(AppendMetaFrame([]byte{1}, &meta))
	f.Add(AppendMetaFrame([]byte{1}, &sim.DistMetaFrame{Round: 5, Shard: 1, Metas: []sim.DistNodeMeta{denseMeta}}))
	f.Add(AppendShardResult([]byte{2}, &result))
	f.Add(append([]byte{1}, hostileMeta...))
	f.Add(append([]byte{2}, hostileResult...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		p := in[1:]
		switch in[0] % 3 {
		case 0:
			var a, b sim.DistFrame
			if DecodeRoundFrame(p, &a) != nil {
				return
			}
			if err := DecodeRoundFrame(AppendRoundFrame(nil, &a), &b); err != nil || !reflect.DeepEqual(a, b) {
				t.Fatalf("round frame re-decodes to %+v (%v), want %+v", b, err, a)
			}
		case 1:
			var a, b sim.DistMetaFrame
			if DecodeMetaFrame(p, &a) != nil {
				return
			}
			for _, m := range a.Metas {
				if cap(m.Meta) > len(p) {
					t.Fatalf("%d-byte payload allocated %d rumors", len(p), cap(m.Meta))
				}
			}
			if err := DecodeMetaFrame(AppendMetaFrame(nil, &a), &b); err != nil || !reflect.DeepEqual(a, b) {
				t.Fatalf("meta frame re-decodes to %+v (%v), want %+v", b, err, a)
			}
		case 2:
			a, err := DecodeShardResult(p)
			if err != nil {
				return
			}
			if cap(a.InformedAt) > len(p) {
				t.Fatalf("%d-byte payload allocated %d informed rounds", len(p), cap(a.InformedAt))
			}
			if b, err := DecodeShardResult(AppendShardResult(nil, a)); err != nil || !reflect.DeepEqual(a, b) {
				t.Fatalf("shard result re-decodes to %+v (%v), want %+v", b, err, a)
			}
		}
	})
}

func TestInformedHash(t *testing.T) {
	base := InformedHash(5, true, []int{0, 1, 2})
	if InformedHash(5, true, []int{0, 1, 2}) != base {
		t.Fatal("hash is not deterministic")
	}
	for name, h := range map[string]uint64{
		"rounds":    InformedHash(6, true, []int{0, 1, 2}),
		"completed": InformedHash(5, false, []int{0, 1, 2}),
		"informed":  InformedHash(5, true, []int{0, 1, 3}),
		"length":    InformedHash(5, true, []int{0, 1}),
	} {
		if h == base {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}
