// Package cluster turns the single-process serving stack into a fleet:
// shard workers serve one shard of a sharded index each through a
// ShardedIndex.Scope view (still in the global coordinate and rank frame,
// so their answers compose), and a router holds a static replicated
// topology, clips each query against the shard bounds it learned from the
// workers, fans out over the network with per-attempt timeouts, hedged
// reads, and jittered-backoff retries, and k-way-merges the per-shard rank
// streams back into global rank order through the same storage merge and
// pooled protocol layer the single-node daemon uses.
//
// The spectral order makes this cheap: ShardedIndex gives every shard a
// contiguous global rank block and an axis-aligned bounding box, so the
// router's planner is a per-shard box clip (internal/shard.ClipBox) and
// its merge is — in the grid case — a pure concatenation
// (storage.MergeSortedAppend's ordered fast path).
//
// Robustness semantics are explicit rather than emergent:
//
//   - per-replica health: consecutive transport failures eject a replica
//     from rotation; a background probe of GET /healthz reinstates it
//     (a draining worker answers 503 there, so probes never route into a
//     teardown);
//   - hedged reads: when the first replica exceeds the hedge threshold
//     the router races a second replica, first response wins, the loser
//     is canceled;
//   - partial results: in -partial mode an unreachable shard yields an
//     honestly labeled response (shards_missing) that is rank-correct
//     for every reachable shard, instead of failing the whole query;
//   - torn-response defense: every per-shard reply is validated against
//     the shard's declared rank block before it can enter a merge, so a
//     worker killed mid-write can cost availability, never correctness.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
)

// Topology is the static cluster layout the router serves: every shard of
// the index file, each with one or more replica workers. The JSON form is
// what `lpmserve -role router -topology cluster.json` loads:
//
//	{"shards": [
//	  {"shard": 0, "replicas": ["10.0.0.1:8081", "10.0.0.2:8081"]},
//	  {"shard": 1, "replicas": ["10.0.0.3:8081", "10.0.0.4:8081"]}
//	]}
//
// Replica addresses are host:port; the router speaks plain HTTP to them.
type Topology struct {
	Shards []ShardReplicas `json:"shards"`
}

// ShardReplicas lists the workers serving one shard.
type ShardReplicas struct {
	Shard    int      `json:"shard"`
	Replicas []string `json:"replicas"`
}

// NumShards returns the number of shards in the topology.
func (t *Topology) NumShards() int { return len(t.Shards) }

// Validate checks the topology is a complete, unambiguous cluster layout:
// shard ids form exactly 0..k-1 (in any order), every shard has at least
// one replica, and no address is listed twice for the same shard (one
// worker cannot be its own failover).
func (t *Topology) Validate() error {
	k := len(t.Shards)
	if k == 0 {
		return fmt.Errorf("cluster: topology declares no shards")
	}
	seen := make([]bool, k)
	for _, s := range t.Shards {
		if s.Shard < 0 || s.Shard >= k {
			return fmt.Errorf("cluster: shard id %d outside [0,%d)", s.Shard, k)
		}
		if seen[s.Shard] {
			return fmt.Errorf("cluster: shard %d declared twice", s.Shard)
		}
		seen[s.Shard] = true
		if len(s.Replicas) == 0 {
			return fmt.Errorf("cluster: shard %d has no replicas", s.Shard)
		}
		for i, addr := range s.Replicas {
			if addr == "" {
				return fmt.Errorf("cluster: shard %d replica %d is empty", s.Shard, i)
			}
			for j := 0; j < i; j++ {
				if s.Replicas[j] == addr {
					return fmt.Errorf("cluster: shard %d lists replica %s twice", s.Shard, addr)
				}
			}
		}
	}
	return nil
}

// byShard returns the replica lists indexed by shard id (Validate has
// pinned the ids to exactly 0..k-1).
func (t *Topology) byShard() [][]string {
	out := make([][]string, len(t.Shards))
	for _, s := range t.Shards {
		out[s.Shard] = s.Replicas
	}
	return out
}

// ParseTopology decodes and validates a topology document.
func ParseTopology(data []byte) (*Topology, error) {
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("cluster: parse topology: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read topology: %w", err)
	}
	return ParseTopology(data)
}
