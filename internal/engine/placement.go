package engine

// Replica placement: which peers own a routing cell. The cluster gateway
// routes every point to the owners of its routing-grid cell; with
// replication the cell is owned by R peers, and because sketch unions are
// idempotent the copies need no consensus — folding any live owner of
// each cell reconstructs the full stream, and folding several owners of
// one cell is a harmless no-op (near-duplicates of themselves collapse).

import (
	"fmt"

	"repro/internal/hash"
)

// MaxReplicas bounds the replication factor. Owner sets are computed into
// fixed-size stack buffers on the ingest hot path, and a replication
// factor beyond a handful of copies buys no additional availability worth
// the write amplification.
const MaxReplicas = 8

// replicaSalt decorrelates the per-peer rendezvous scores from the
// primary-owner reduction of the same cell hash (odd, so multiplication
// by it is a bijection on uint64).
const replicaSalt = 0x9e3779b97f4a7c15

// Placement maps routing cells to the R peers that own them. The primary
// owner is the bit-mixed modular reduction the single-owner gateway has
// always used, so a Placement with Replicas()==1 routes bit-identically
// to the legacy path; the R-1 extra owners are chosen by rendezvous
// (highest-random-weight) hashing over the remaining peers, so each
// peer's share of secondary ownership is balanced and deterministic given
// the peer-list order. The zero value is unusable; build with
// NewPlacement.
type Placement struct {
	peers    int
	replicas int
}

// NewPlacement validates and builds a placement of cells onto peers
// numbered 0..peers-1 with the given replication factor.
func NewPlacement(peers, replicas int) (Placement, error) {
	if peers < 1 {
		return Placement{}, fmt.Errorf("engine: placement needs ≥ 1 peer, got %d", peers)
	}
	if replicas < 1 {
		return Placement{}, fmt.Errorf("engine: placement needs replicas ≥ 1, got %d", replicas)
	}
	if replicas > MaxReplicas {
		return Placement{}, fmt.Errorf("engine: placement replicas %d exceeds MaxReplicas %d", replicas, MaxReplicas)
	}
	if replicas > peers {
		return Placement{}, fmt.Errorf("engine: placement replicas %d exceeds peer count %d", replicas, peers)
	}
	return Placement{peers: peers, replicas: replicas}, nil
}

// Peers returns the peer count the placement was built for.
func (pl Placement) Peers() int { return pl.peers }

// Replicas returns the replication factor.
func (pl Placement) Replicas() int { return pl.replicas }

// Primary returns the cell's first owner. The cell hash is bit-mixed
// before the modular reduction: the peers reduce the very same hash mod
// their internal shard count, and without the mix a peer that only ever
// receives hashes ≡ i (mod peers) would feed only the shards in that
// residue class whenever gcd(peers, shards) > 1, idling the rest. Mixing
// decorrelates the two reductions while still sending every point of one
// routing cell to one peer. Owners always lists Primary first, so
// enabling replication never moves the first copy of any point.
//
//sketch:hotpath
func (pl Placement) Primary(cell uint64) int {
	return int(hash.Mix64(cell) % uint64(pl.peers))
}

// score is peer i's rendezvous weight for a cell: every (cell, peer)
// pair gets an independent uniform weight, so the top-scoring peers of a
// cell are a uniform sample of the fleet and removing one peer only
// moves the cells that peer owned.
//
//sketch:hotpath
func (pl Placement) score(cell uint64, i int) uint64 {
	return hash.Mix64(cell ^ (uint64(i)+1)*replicaSalt)
}

// Owners appends the cell's owner peer indices to buf (primary first,
// then replicas in decreasing rendezvous score) and returns the extended
// slice. Allocation-free when cap(buf) ≥ Replicas(); pass a stack buffer
// of MaxReplicas on hot paths. The owner set is deterministic in (cell,
// peer count, replicas) and owner sets of different cells are
// independent, so every peer owns ~replicas/peers of the cell space.
//
//sketch:hotpath
func (pl Placement) Owners(cell uint64, buf []int) []int {
	buf = append(buf[:0], pl.Primary(cell))
	for len(buf) < pl.replicas {
		best, bestScore := -1, uint64(0)
		for i := 0; i < pl.peers; i++ {
			if containsOwner(buf, i) {
				continue
			}
			if s := pl.score(cell, i); best < 0 || s > bestScore {
				best, bestScore = i, s
			}
		}
		buf = append(buf, best)
	}
	return buf
}

// Owns reports whether peer i is one of the cell's owners.
//
//sketch:hotpath
func (pl Placement) Owns(cell uint64, i int) bool {
	if i == pl.Primary(cell) {
		return true
	}
	var ob [MaxReplicas]int
	return containsOwner(pl.Owners(cell, ob[:0]), i)
}

// containsOwner reports whether the owner set built so far includes i.
//
//sketch:hotpath
func containsOwner(owners []int, i int) bool {
	for _, o := range owners {
		if o == i {
			return true
		}
	}
	return false
}
