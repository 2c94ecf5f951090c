package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenBuilds pins what construction produces, byte for byte: the SHA-256 of
// SaveFile's output and the CacheKey for testGenome(200 000) in every locate
// mode and prefix-table order. The constants were generated at the commit
// before construction moved into the suffix array's own memory (in-place
// SA-IS, word-wise node encoding, one-StepAll ftab refinement), so a build
// that reorders a suffix, flips a BWT symbol or lays a record out differently
// fails here, and a state directory written by either side serves the other.
var goldenBuilds = []struct {
	locate   LocateMode
	ftabK    int
	file     string // SHA-256 of the .bwx file
	cacheKey string
}{
	{LocateFullSA, 0, "15baee64c6e9af8a4ae0b3343242cfafb41f511506eb124f1c315e4dfed2a0e4", "efa9171a88e28f986b3d68aa24f1c45cd28627277d8f86526c6f7fef85301c8b"},
	{LocateFullSA, 8, "caba5627d6513140ea24523a9065b81d63a10e13a9cf3067d826ecf64954459a", "df753adeb3ad5060fde5646982983532864d66354a9818bcac94765852dab904"},
	{LocateFullSA, 10, "49bdd14223388ecd2fe3513125e3b01f3316da8848e6b410853d4a833eb7fcc0", "91e8a83742e891646268841897875e85260e3f137a9b2c298792b592edb63fdb"},
	{LocateSampled, 0, "750a323c4152243b056918d15dee700b1a57e9aa02f70c4104b5a5cb65b3b841", "9974581bfbd6ab492ebd2be970fe3a895a937b2bc43e066051179055d1eaf726"},
	{LocateSampled, 8, "4411e51dadea528406fb8a924387f20c1e53f5e68f46b4d6a6ec8ff508b565e6", "c595c37d9aaaff8d5ebd4a98989c313a8718801b77765063ed9d109bfff46bfd"},
	{LocateSampled, 10, "2fd1fa9ef242b0697f0027b0812be376066ed99a5b41bdb921ce04ab47b59310", "8562d2f682fbf8f9c3e27933aada35afc74cce5375953d7c616ac6ed3c085b68"},
	{LocateNone, 0, "405e1b6f55f1895ebb18357c5e294b49145d0e9d5b6b609b291a262e2424049c", "38d8080cee81705387a423e1aa00cfb6e812d9c714b307cb2ab77d43c7e5a1bd"},
	{LocateNone, 8, "6ffb6e3b5c313cf051d51cff8fb102a75a1233686d2cd7f690a7a98f699b8507", "b358df40b2d26fdc96669872979b785e07237472f3e60ba0ce83ee737f07dd70"},
	{LocateNone, 10, "6f09c905205373dfae827954c33d9969244a1427c5d5daf638128b14668c1da4", "9cb64ebea7d4846771225e80eeea3f9289fdc89f87dd3dd0e7328305e2e3c088"},
}

func TestGoldenBuilds(t *testing.T) {
	ref := testGenome(t, 200000)
	dir := t.TempDir()
	digest := func(ix *Index) string {
		t.Helper()
		path := filepath.Join(dir, "golden.bwx")
		if err := ix.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	for _, g := range goldenBuilds {
		t.Run(fmt.Sprintf("%s/ftab%d", g.locate, g.ftabK), func(t *testing.T) {
			cfg := IndexConfig{Locate: g.locate, FtabK: g.ftabK}
			if key := CacheKey(ref, nil, cfg); key != g.cacheKey {
				t.Errorf("CacheKey = %s, want %s", key, g.cacheKey)
			}
			ix := mustBuild(t, ref, cfg)
			if got := digest(ix); got != g.file {
				t.Errorf("built file = %s, want %s", got, g.file)
			}
			// The seed-and-extend state rides beside the index, never in it.
			if err := ix.EnsureMem(); err != nil {
				t.Fatal(err)
			}
			if got := digest(ix); got != g.file {
				t.Errorf("file after EnsureMem = %s, want %s", got, g.file)
			}
		})
	}
}
