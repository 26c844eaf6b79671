package icegate

import "encoding/json"

// storedResult is the disk encoding of a finished result: the rendered
// table plus the per-cell records in index order, as stable JSON inside
// the store's checksummed envelope, so an entry written by one daemon
// replays byte-identically from the next.
type storedResult struct {
	Table string       `json:"table"`
	Cells []CellResult `json:"cells"`
}

// storeGet looks the key up in the disk store (the level below the
// retained jobs). A corrupt or undecodable payload is a miss — the
// store has already quarantined checksum failures, and a JSON-level
// failure here just means re-simulating.
func (s *Scheduler) storeGet(key string) (storedResult, bool) {
	if s.store == nil {
		return storedResult{}, false
	}
	raw, ok := s.store.Get(key)
	if !ok {
		return storedResult{}, false
	}
	var sr storedResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		return storedResult{}, false
	}
	return sr, true
}

// storePut writes a finished job's result through to the disk store.
// Failures (oversized for the store's budget, disk trouble) cost only
// restart durability, never correctness, so they are dropped.
func (s *Scheduler) storePut(job *Job, table string) {
	if s.store == nil {
		return
	}
	raw, err := json.Marshal(storedResult{Table: table, Cells: job.cellsByIndex()})
	if err != nil {
		return
	}
	_ = s.store.Put(job.key, raw)
}
