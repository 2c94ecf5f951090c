package rrr_test

import (
	"fmt"
	"log"

	"bwaver/internal/rrr"
)

// ExampleSequence_Rank1 encodes a small bit-vector with the paper's
// parameters and answers a rank query.
func ExampleSequence_Rank1() {
	bits := []bool{true, false, true, true, false, false, true, false}
	s, err := rrr.FromBools(bits, rrr.Params{BlockSize: 4, SuperblockFactor: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ones in first 5 bits:", s.Rank1(5))
	fmt.Println("total ones:", s.Rank1(len(bits)))
	// Output:
	// ones in first 5 bits: 3
	// total ones: 4
}
