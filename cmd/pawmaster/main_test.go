package main

import (
	"bytes"
	"testing"

	"paw/internal/blockstore"
	"paw/internal/dataset"
	"paw/internal/kdtree"
)

// TestPayloadSourceMatchesMaterialize: the rebalance payload the master
// rebuilds for a partition encodes byte-identically to the table the
// workers' Materialize stored for it.
func TestPayloadSourceMatchesMaterialize(t *testing.T) {
	data := dataset.Uniform(20000, 3, 9)
	sample := make([]int, 0, 2000)
	for i := 0; i < data.NumRows(); i += 10 {
		sample = append(sample, i)
	}
	l := kdtree.Build(data, sample, data.Domain(), kdtree.Params{MinRows: 100})
	store := blockstore.Materialize(l, data, blockstore.Config{})
	src := payloadSource(l, data)
	for _, p := range l.Parts {
		payload, rows, err := src(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := store.Partition(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := sp.Table.Encode(&want); err != nil {
			t.Fatal(err)
		}
		if rows != p.FullRows || !bytes.Equal(payload, want.Bytes()) {
			t.Fatalf("partition %d: payload of %d rows (%d bytes) differs from the stored table of %d rows (%d bytes)",
				p.ID, rows, len(payload), p.FullRows, want.Len())
		}
	}
	if _, _, err := src(-1); err == nil {
		t.Error("unknown partition must error")
	}
	if _, _, err := src(99999); err == nil {
		t.Error("unknown partition must error")
	}
}
