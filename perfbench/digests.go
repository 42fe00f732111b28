package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// digests.json holds, per workload and shipped seed, the SHA-256 of the
// workload's rendered output as produced by the commit that added the
// benchmark. A later change that keeps every user-visible byte keeps
// these digests.
//
//go:embed digests.json
var digestsJSON []byte

// expectedDigest returns the shipped digest for (workload, seed).
func expectedDigest(workload string, seed uint64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}
