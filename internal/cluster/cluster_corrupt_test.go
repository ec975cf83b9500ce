package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/pkg/sketch"
)

// peerSketch fetches a peer's GET /sketch body.
func peerSketch(t *testing.T, url string) []byte {
	t.Helper()
	resp := mustGet(t, url+"/sketch")
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/sketch: status %d, %v", url, resp.StatusCode, err)
	}
	return blob
}

// raiseWitnessLevels returns a copy of an l0 envelope in the l0s2 layout,
// written in dimension 2 without RandomRepresentative or a shared grid,
// in which every entry that names a witness carries a near level one
// above its witness's: a well-formed blob whose levels the hash refutes.
func raiseWitnessLevels(t *testing.T, blob []byte) []byte {
	t.Helper()
	const envelopeHeader = 6
	if string(blob[envelopeHeader:envelopeHeader+4]) != "l0s2" {
		t.Fatalf("peer sketch payload is %q, not l0s2", blob[envelopeHeader:envelopeHeader+4])
	}
	out := bytes.Clone(blob)
	uvarint := func(off int) int { _, n := binary.Uvarint(out[off:]); return off + n }
	off := envelopeHeader + 4 + 8 // magic, alpha
	for range 4 {
		off = uvarint(off) // dim, stream bound, kappa, K
	}
	off += 8 + 1 + 1 + 8 + 8 // seed, hash, flags, side, R
	_, n := binary.Varint(out[off:])
	off = uvarint(uvarint(off + n)) // processed; rehashes, peak
	count, n := binary.Uvarint(out[off:])
	off += n
	raised := 0
	for range count {
		own, near := out[off]&0x7f, out[off+1]
		if near > own {
			out[off+1]++
			raised++
			off = uvarint(off + 2)
		} else {
			off += 2
		}
		_, n := binary.Varint(out[off:])
		off += n + 16 // stamp, rep
	}
	if off != len(out) || raised == 0 {
		t.Fatalf("walked %d of %d bytes, raised %d levels", off, len(out), raised)
	}
	return out
}

// TestScatterCorruptPeerSketch serves a corrupt GET /sketch from one of
// three peers — truncated bytes, or a well-formed l0s2 blob whose
// witness levels are wrong — in the fold receiver's place and in a later
// one. The peer must count as failed: under PartialDegrade the answer is
// partial and the fold is the union of the other two peers, and under
// PartialFail the round is refused. peer_deserializes counts the two
// sketches decoded per installed fold and sketch_merges the one merge.
func TestScatterCorruptPeerSketch(t *testing.T) {
	pts := stream(300, 10, 41)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 5, StreamBound: len(pts) + 1, Kappa: 8}
	peers := newTestCluster(t, opts, 3, 2)
	router, err := engine.NewRouterFromOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := engine.NewPlacement(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		peers[pl.Primary(router.Route(p))].eng.Process(p)
	}
	blobs := make([][]byte, len(peers))
	for i, p := range peers {
		blobs[i] = peerSketch(t, p.ts.URL)
	}
	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"witness":   func(b []byte) []byte { return raiseWitnessLevels(t, b) },
	}
	for _, name := range []string{"truncated", "witness"} {
		for _, bad := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/peer=%d", name, bad), func(t *testing.T) {
				corrupt := corruptions[name](blobs[bad])
				proxy := forwardProxy(t, peers[bad].ts.URL, func(path string) (bool, func(http.ResponseWriter)) {
					if path != "/sketch" {
						return false, nil
					}
					return true, func(w http.ResponseWriter) { _, _ = w.Write(corrupt) }
				})
				withProxy := func(policy Policy) func(*Config) {
					return func(c *Config) {
						c.Peers[bad] = proxy.URL
						c.Partial = policy
						c.MaxStale = 100 * time.Millisecond
					}
				}
				_, degradeTS := newTestGateway(t, opts, peers, withProxy(PartialDegrade))
				_, failTS := newTestGateway(t, opts, peers, withProxy(PartialFail))

				q, _ := getQuery(t, degradeTS.URL)
				if !q.Partial || q.PeersOK != 2 || len(q.FailedPeers) != 1 || q.FailedPeers[0] != proxy.URL {
					t.Fatalf("query over a corrupt peer: %+v, want partial with %s failed", q, proxy.URL)
				}
				var want sketch.Mergeable
				for i, blob := range blobs {
					if i == bad {
						continue
					}
					sk, err := sketch.Deserialize(blob)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = sk.(sketch.Mergeable)
					} else if err := want.Merge(sk); err != nil {
						t.Fatal(err)
					}
				}
				wantBlob, err := want.Serialize()
				if err != nil {
					t.Fatal(err)
				}
				if got := peerSketch(t, degradeTS.URL); !bytes.Equal(got, wantBlob) {
					t.Fatal("the gateway's fold is not the union of the other two peers")
				}
				// A background round may be between its decodes and its
				// install when /stats is read, so the counts must settle.
				waitFor(t, 5*time.Second, "2 deserializes and 1 merge per installed fold", func() bool {
					st := gwStats(t, degradeTS.URL)
					return st.FedCacheMisses >= 1 && st.PeerDeserializes == 2*st.FedCacheMisses && st.SketchMerges == st.FedCacheMisses
				})

				resp := mustGet(t, failTS.URL+"/query")
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadGateway {
					t.Fatalf("fail-policy query over a corrupt peer: status %d, want 502", resp.StatusCode)
				}
				if st := gwStats(t, failTS.URL); st.FedCacheMisses != 0 {
					t.Fatalf("fail policy installed %d folds", st.FedCacheMisses)
				}
			})
		}
	}
}
