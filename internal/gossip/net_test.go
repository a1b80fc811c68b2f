package gossip

import (
	"context"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gossip/internal/graphgen"
	"gossip/internal/transport"
)

// netTestRound is deliberately tiny: these tests verify plumbing, not
// timing statistics, and the protocols only need ticks to happen.
const netTestRound = 500 * time.Microsecond

func TestRunNetPushPullChanMesh(t *testing.T) {
	csr := graphgen.Clique(16, 1).CSR()
	mesh := transport.NewChanMesh(csr.N(), 0)
	defer mesh.Close()
	res, err := RunNet(NetConfig{
		Mesh:   mesh,
		CSR:    csr,
		Driver: "push-pull",
		Opts:   DriverOptions{Seed: 1},
		Round:  netTestRound,
	})
	if err != nil {
		t.Fatalf("RunNet: %v", err)
	}
	if !res.Completed {
		t.Fatalf("push-pull did not complete: %+v", res)
	}
	if res.InformedAt[0] != 0 {
		t.Fatalf("source informedAt = %d, want 0", res.InformedAt[0])
	}
	for u, at := range res.InformedAt {
		if at < 0 {
			t.Fatalf("node %d never informed", u)
		}
	}
	if res.Messages == 0 {
		t.Fatal("no messages sent")
	}
}

func TestRunNetFloodBlockingChanMesh(t *testing.T) {
	csr := graphgen.Grid(4, 4, 1).CSR()
	mesh := transport.NewChanMesh(csr.N(), 0)
	defer mesh.Close()
	res, err := RunNet(NetConfig{
		Mesh:   mesh,
		CSR:    csr,
		Driver: "flood",
		Opts:   DriverOptions{Seed: 7},
		Round:  netTestRound,
	})
	if err != nil {
		t.Fatalf("RunNet: %v", err)
	}
	if !res.Completed {
		t.Fatalf("flood did not complete: %+v", res)
	}
}

// TestRunNetTCPTwoProcesses runs the same topology split over two TCP
// mesh halves inside one test binary — the in-process stand-in for the
// gossipnode multi-process path.
func TestRunNetTCPTwoProcesses(t *testing.T) {
	csr := graphgen.Clique(12, 1).CSR()
	addrs := make([]string, 2)
	lns := make([]net.Listener, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	meshes := make([]*transport.TCPMesh, 2)
	for i := range meshes {
		m, err := transport.NewTCPMesh(i, addrs, csr.N(), 0)
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
		defer m.Close()
	}
	var startWG sync.WaitGroup
	startErrs := make([]error, 2)
	for i, m := range meshes {
		startWG.Add(1)
		go func(i int, m *transport.TCPMesh) {
			defer startWG.Done()
			startErrs[i] = m.Start(ctx)
		}(i, m)
	}
	startWG.Wait()
	for i, err := range startErrs {
		if err != nil {
			t.Fatalf("Start(%d): %v", i, err)
		}
	}

	results := make([]NetResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, m := range meshes {
		wg.Add(1)
		go func(i int, m *transport.TCPMesh) {
			defer wg.Done()
			results[i], errs[i] = RunNet(NetConfig{
				Mesh:      m,
				CSR:       csr,
				Driver:    "push-pull",
				Opts:      DriverOptions{Seed: 3},
				Round:     2 * time.Millisecond,
				MaxRounds: 400,
			})
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("RunNet(%d): %v", i, err)
		}
	}
	// Merge the two halves: every node must be informed in exactly one.
	for u := 0; u < csr.N(); u++ {
		proc := 0
		if lo, _ := transport.NodeRange(csr.N(), 2, 0); u >= lo+len(meshes[0].Local()) {
			proc = 1
		}
		if results[proc].InformedAt[u] < 0 {
			t.Fatalf("node %d (proc %d) never informed: %+v %+v", u, proc, results[0], results[1])
		}
	}
	if !results[0].Completed || !results[1].Completed {
		t.Fatalf("incomplete halves: %+v %+v", results[0], results[1])
	}
}

func TestRunNetValidation(t *testing.T) {
	csr := graphgen.Clique(4, 1).CSR()
	mesh := transport.NewChanMesh(csr.N(), 0)
	defer mesh.Close()
	if _, err := RunNet(NetConfig{CSR: csr, Driver: "push-pull"}); err == nil {
		t.Fatal("nil mesh accepted")
	}
	if _, err := RunNet(NetConfig{Mesh: mesh, CSR: csr, Driver: "no-such"}); err == nil {
		t.Fatal("unknown driver accepted")
	}
	// Only the drivers registered RealTransport run here: dtg would send
	// nothing and idle to the horizon, election would "complete" on a
	// criterion that is not its own.
	for _, name := range []string{"spanner", "dtg", "superstep", "rr", "election", "echo"} {
		_, err := RunNet(NetConfig{Mesh: mesh, CSR: csr, Driver: name})
		if err == nil || !strings.Contains(err.Error(), strings.Join(RealTransportNames(), ", ")) {
			t.Fatalf("driver %s: %v, want a refusal listing the real-transport drivers", name, err)
		}
	}
	if _, err := RunNet(NetConfig{Mesh: mesh, CSR: csr, Driver: "push-pull", Opts: DriverOptions{Source: 99}}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// hostileNetMsgs are two payloads that kill a node's goroutine when
// decoded on trust: a rumor count far beyond the message (makeslice
// panic) and a rumor id beyond the topology (bitset range panic in Gain).
var hostileNetMsgs = [][]byte{
	{netSyn, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	{netAck, 1, 200, 1}, // one rumor, id 200, on a topology of 16
}

func TestDecodeNetMsgRejectsHostileBytes(t *testing.T) {
	for _, p := range hostileNetMsgs {
		if _, rumors, err := decodeNetMsg(p, 16); err == nil {
			t.Errorf("% x decoded to %v, want an error", p, rumors)
		}
	}
	journal := []int32{3, 0, 15}
	kind, rumors, err := decodeNetMsg(encodeNetMsg(netAck, journal), 16)
	if err != nil || kind != netAck || !slices.Equal(rumors, journal) {
		t.Fatalf("round trip = %d %v %v, want %d %v", kind, rumors, err, netAck, journal)
	}
}

// TestRunNetSurvivesHostileBytes: a rejected message is dropped like any
// lost packet and the run goes on.
func TestRunNetSurvivesHostileBytes(t *testing.T) {
	csr := graphgen.Clique(16, 1).CSR()
	mesh := transport.NewChanMesh(csr.N(), 0)
	defer mesh.Close()
	for u := 0; u < csr.N(); u++ {
		for _, p := range hostileNetMsgs {
			if err := mesh.Send((u+1)%csr.N(), u, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := RunNet(NetConfig{Mesh: mesh, CSR: csr, Driver: "push-pull", Opts: DriverOptions{Seed: 1}, Round: netTestRound})
	if err != nil {
		t.Fatalf("RunNet: %v", err)
	}
	if !res.Completed {
		t.Fatalf("push-pull did not complete: %+v", res)
	}
}

// FuzzDecodeNetMsg holds the TCP mesh's payload decoder to the contract
// of every parser of network bytes: an error or a slice of in-range ids,
// never a panic, never an allocation sized by anything but the input.
func FuzzDecodeNetMsg(f *testing.F) {
	f.Add(encodeNetMsg(netSyn, []int32{0, 3, 7}), uint16(8))
	for _, p := range hostileNetMsgs {
		f.Add(p, uint16(16))
	}
	f.Fuzz(func(t *testing.T, p []byte, size uint16) {
		n := int(size) + 1
		_, rumors, err := decodeNetMsg(p, n)
		if err != nil {
			return
		}
		if cap(rumors) > len(p) {
			t.Fatalf("%d-byte message allocated %d rumor slots", len(p), cap(rumors))
		}
		for _, r := range rumors {
			if r < 0 || int(r) >= n {
				t.Fatalf("decoded rumor %d outside [0, %d)", r, n)
			}
		}
	})
}
