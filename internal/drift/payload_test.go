package drift

import (
	"bytes"
	"math/rand"
	"testing"

	"paw/internal/blockstore"
	"paw/internal/layout"
)

// TestMigrationPayloadMatchesMaterialize: a partition shipped by a drift
// migration encodes byte-identically to the table Materialize stores for
// the same rows, whatever order the rebuild hands the rows over in — a
// moved partition keeps epoch 0's row order and scan cost.
func TestMigrationPayloadMatchesMaterialize(t *testing.T) {
	cfg := testConfig()
	tc := startDriftCluster(t, 4000, 2, cfg)
	store := blockstore.Materialize(tc.layout, tc.data, blockstore.Config{GroupRows: cfg.GroupRows})

	all := make([]int, tc.data.NumRows())
	for i := range all {
		all[i] = i
	}
	rand.New(rand.NewSource(5)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	payloadRows := tc.layout.RouteIndices(tc.data, all)
	diff := layout.Diff{Renamed: map[layout.ID]layout.ID{}}
	for _, p := range tc.layout.Parts {
		diff.Added = append(diff.Added, p.ID)
	}
	mig, _, err := tc.ctl.buildMigration(tc.layout, diff, payloadRows)
	if err != nil {
		t.Fatal(err)
	}
	if len(mig.Entries) != len(tc.layout.Parts) {
		t.Fatalf("%d migration entries for %d partitions", len(mig.Entries), len(tc.layout.Parts))
	}
	for _, e := range mig.Entries {
		sp, err := store.Partition(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := sp.Table.Encode(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Payload, want.Bytes()) {
			t.Fatalf("partition %d: migration payload (%d bytes) differs from the materialised table (%d bytes)",
				e.ID, len(e.Payload), want.Len())
		}
	}
}
