package rt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"presto/internal/network"
	"presto/internal/rt"
)

// TestRegistryIdentity pins the bytes of Report().Registry — every node's
// instrument names, their sort order and their values — for a small run
// under each protocol and for a 128-node clustered run with aggregation,
// whose "n100/" prefixes sort between "n10/" and "n11/". A change to how
// node instruments are built or rendered must leave these digests alone.
func TestRegistryIdentity(t *testing.T) {
	cluster, err := network.Preset("cluster:8x16")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  rt.Config
		want string
	}{
		{"stache", rt.Config{Nodes: 8, BlockSize: 32, Protocol: rt.ProtoStache}, "9d44638828bd36df63393472a88396ac31cd60a56ffb6317c348ecdbcea649c5"},
		{"predictive", rt.Config{Nodes: 8, BlockSize: 32, Protocol: rt.ProtoPredictive}, "a621b8ebbb64f49b17b831878336835588a4f3936e2ccff8320f021801e7a7f2"},
		{"update", rt.Config{Nodes: 8, BlockSize: 64, Protocol: rt.ProtoUpdate}, "d369126ea067c639cc39551ad096a082405fb239d2326d8840c16ea1e17ef202"},
		{"cluster-aggregate", rt.Config{Nodes: 128, BlockSize: 32, Protocol: rt.ProtoPredictive, Net: cluster, Aggregate: true}, "e46aed7874fdbbeacf4251f6632c79b67b6b5353887cbe2c6d7d33679ca3c7a1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := runAgg(t, c.cfg, broadcastProg, 2)
			b, err := json.Marshal(m.Report().Registry)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("Registry JSON sha256 = %s, want %s (%d bytes: %.300s)", got, c.want, len(b), b)
			}
		})
	}
}
