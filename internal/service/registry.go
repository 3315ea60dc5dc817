// The session's job registry: one record per job — live sweeps
// (*JobHandle, ids "j1", "j2", …) and jobs replayed from the crash
// journal — behind one map, one admission-ordered slice, one id
// sequence and one lock (jobMu). Both kinds answer the same questions
// (Record), so the wire /jobs surface never branches on kind, and one
// retention bound (Config.RetainJobs) evicts the oldest finished
// records of both.
//
// Crash recovery: a session configured with Config.JobStorePath
// journals every wire-submitted sweep — its spec at admission, its
// wire result at completion — and replays the journal at New. A
// replayed job is a record with no live handle: it is always done,
// cancelling it does nothing, and it serves its journaled result byte
// for byte, or state "interrupted" when the previous process died
// before the result, so clients know to resubmit. Ids stay unique
// across restarts because the sequence resumes above the highest
// replayed id, and every removal of a journaled record — DELETE and
// retention eviction alike — journals an evict so the record stays
// gone after the next restart. Older builds also journaled plan
// pre-training runs under "t…" ids; replay drops those records and
// journals their eviction, so the next compaction removes them.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strconv"

	"joss/internal/jobstore"
	"joss/internal/workloads"
)

// Record is one entry of the session's job registry: a *JobHandle or
// a job replayed from the journal.
type Record interface {
	// ID is the session-unique id, "jN".
	ID() string
	// Done is closed once the job has finished; a replayed job's is
	// closed from the start.
	Done() <-chan struct{}
	// Cancel stops a running job cooperatively. It is a no-op once the
	// job is done, and always for a replayed job.
	Cancel()
	// wireStatus is the job's GET /jobs/{id} body. withResult is false
	// for the DELETE answer, where a live sweep has always reported its
	// progress snapshot alone; a replayed record embeds its result in
	// the status and carries it either way.
	wireStatus(withResult bool) any
	// wireSummary is the job's GET /jobs row.
	wireSummary() WireJobSummary
	entry() *record
}

// record is the registry bookkeeping every Record embeds.
type record struct {
	id string
	// journaled marks records whose spec is in the job journal, so
	// their result and their removal are journaled too. It is set
	// before the record can finish and read only once it has.
	journaled bool
	doneCh    chan struct{}
}

func (r *record) ID() string            { return r.id }
func (r *record) Done() <-chan struct{} { return r.doneCh }
func (r *record) entry() *record        { return r }

func (r *record) done() bool {
	select {
	case <-r.doneCh:
		return true
	default:
		return false
	}
}

// register gives rec the next id of the sequence, adds it to the
// registry in admission order and applies the retention bound.
func (s *Session) register(rec Record) {
	e := rec.entry()
	s.jobMu.Lock()
	s.jobSeq++
	e.id = "j" + strconv.FormatInt(s.jobSeq, 10)
	s.jobsByID[e.id] = rec
	s.jobOrder = append(s.jobOrder, rec)
	evicted := s.evictLocked()
	s.jobMu.Unlock()
	s.journalEvicts(evicted)
}

// unregister drops a record whose admission failed before anything
// about it was journaled.
func (s *Session) unregister(id string) {
	s.jobMu.Lock()
	s.dropLocked(id)
	s.jobMu.Unlock()
}

// dropLocked removes a registered id from the map and the admission
// order. Called with jobMu held.
func (s *Session) dropLocked(id string) {
	delete(s.jobsByID, id)
	for i, r := range s.jobOrder {
		if r.ID() == id {
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			return
		}
	}
}

// evictLocked drops the oldest finished records beyond the retention
// bound — every kind, replayed ones included; running jobs are never
// evicted — and returns the journaled ids among them, for the caller
// to journal once jobMu is released. Called with jobMu held.
func (s *Session) evictLocked() (journaled []string) {
	for i := 0; len(s.jobOrder) > s.retain && i < len(s.jobOrder); {
		e := s.jobOrder[i].entry()
		if !e.done() {
			i++
			continue
		}
		delete(s.jobsByID, e.id)
		s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
		if e.journaled {
			journaled = append(journaled, e.id)
		}
	}
	return journaled
}

// journalEvicts records removals of journaled jobs so replay drops them
// too. Best effort: a failed evict append only resurfaces the job
// after the next restart.
func (s *Session) journalEvicts(ids []string) {
	for _, id := range ids {
		_ = s.store.Evict(id)
	}
}

// errJournal marks an admission refused because the job journal could
// not record the spec: durability was requested and cannot be
// honoured, so the job is refused rather than run untracked.
var errJournal = errors.New("service: journaling job spec")

// journalSpec journals a registered record's wire spec at admission
// when the session has a job store and the caller supplied a spec;
// otherwise the record stays unjournaled.
func (s *Session) journalSpec(e *record, spec json.RawMessage) error {
	if s.store == nil || spec == nil {
		return nil
	}
	if err := s.store.AppendSpec(e.id, spec); err != nil {
		return fmt.Errorf("%w: %w", errJournal, err)
	}
	e.journaled = true
	return nil
}

// journalResult journals a journaled job's wire result, before its
// completion is published: a shutdown ordered on WaitIdle then cannot
// close the store under the append, and a journaled "done" is never
// observable before it is durable. A failed append leaves the spec
// without a result: the job replays as interrupted, which is honest —
// its result did not survive.
func (s *Session) journalResult(id string, result any) {
	if b, err := json.Marshal(result); err == nil {
		_ = s.store.AppendResult(id, b)
	}
}

// Lookup finds a job of any kind by id.
func (s *Session) Lookup(id string) (Record, bool) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	r, ok := s.jobsByID[id]
	return r, ok
}

// records snapshots the registry in admission order.
func (s *Session) records() []Record {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return append([]Record(nil), s.jobOrder...)
}

// JobIDs lists the registered jobs of every kind in admission order;
// replayed jobs lead, as they predate every live one.
func (s *Session) JobIDs() []string {
	recs := s.records()
	ids := make([]string, len(recs))
	for i, r := range recs {
		ids[i] = r.ID()
	}
	return ids
}

// Remove evicts a finished job of any kind (the wire DELETE on a
// finished job), journaling the eviction of a journaled one so it
// stays gone after a restart. A running job stays registered and false
// is returned.
func (s *Session) Remove(id string) bool {
	s.jobMu.Lock()
	r, ok := s.jobsByID[id]
	ok = ok && r.entry().done()
	if ok {
		s.dropLocked(id)
	}
	s.jobMu.Unlock()
	if ok && r.entry().journaled {
		s.journalEvicts([]string{id})
	}
	return ok
}

// WaitIdle blocks until every registered job has finished. Combined
// with StartDrain (no new admissions) this is the daemon's graceful
// shutdown barrier for fire-and-forget async jobs, which no HTTP
// request is left waiting on.
func (s *Session) WaitIdle() {
	for {
		var pending Record
		s.jobMu.Lock()
		for _, r := range s.jobOrder {
			if !r.entry().done() {
				pending = r
				break
			}
		}
		s.jobMu.Unlock()
		if pending == nil {
			return
		}
		<-pending.Done()
	}
}

// replayedJob is a journal-replayed record, immutable after New: its
// wire status and summary are fixed at replay.
type replayedJob struct {
	record
	status  WireJobStatus
	summary WireJobSummary
}

func (*replayedJob) Cancel()                       {}
func (j *replayedJob) wireStatus(bool) any         { return j.status }
func (j *replayedJob) wireSummary() WireJobSummary { return j.summary }

// closedCh is every replayed job's Done channel.
var closedCh = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// openJobStore opens and replays the job journal into the registry,
// resumes the id sequence above every replayed id, and applies the
// retention bound to the replayed records. A "t…" record is a plan
// pre-training run journaled by an older build: it is dropped with one
// log line for all of them, and its eviction is journaled so the next
// open compacts it away. Called from New, before the session is shared.
func (s *Session) openJobStore(path string) error {
	store, entries, err := jobstore.Open(path)
	if err != nil {
		return err
	}
	var retired []string
	for _, e := range entries {
		prefix, n, ok := parseJobID(e.ID)
		if !ok {
			store.Close()
			return fmt.Errorf("service: job journal %s holds foreign job id %q", path, e.ID)
		}
		if prefix == "t" {
			retired = append(retired, e.ID)
			continue
		}
		rj := &replayedJob{record: record{id: e.ID, journaled: true, doneCh: closedCh}}
		rj.replaySweep(e)
		s.jobsByID[e.ID] = rj
		s.jobOrder = append(s.jobOrder, rj)
		s.jobSeq = max(s.jobSeq, n)
	}
	s.store = store
	if len(retired) > 0 {
		slog.Warn("service: dropping pre-training runs from the job journal; plan pre-training is retired",
			"journal", path, "jobs", retired)
		s.journalEvicts(retired)
	}
	s.journalEvicts(s.evictLocked())
	return nil
}

// parseJobID splits an id the session could have minted — "j", or the
// "t" of an older build's pre-training runs, followed by a canonical
// positive decimal — into prefix and sequence number.
func parseJobID(id string) (prefix string, n int64, ok bool) {
	if len(id) < 2 || (id[0] != 'j' && id[0] != 't') {
		return "", 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil || n <= 0 || strconv.FormatInt(n, 10) != id[1:] {
		return "", 0, false
	}
	return id[:1], n, true
}

// replaySweep renders a replayed sweep in the GET /jobs/{id} schema. A
// done or cancelled job carries its journaled result verbatim: every
// field round-trips exactly, so responses stay byte-identical to the
// pre-crash ones. An interrupted job carries counts only — its partial
// progress died with the previous process.
func (j *replayedJob) replaySweep(e jobstore.Entry) {
	st := WireJobStatus{
		JobID:      e.ID,
		State:      string(JobInterrupted),
		UnitsTotal: unitsFromWireSpec(e.Spec),
		Cells:      []WireCellStatus{},
	}
	var res WireSweepResult
	if e.Result != nil && json.Unmarshal(e.Result, &res) == nil {
		st.State = string(JobDone)
		if res.Cancelled {
			st.State = string(JobCancelled)
		}
		st.UnitsTotal = res.Units
		st.UnitsDone = res.UnitsDone
		st.UnitsDropped = res.Units - res.UnitsDone
		st.ElapsedSec = res.ElapsedSec
		st.Result = &res
	}
	j.status = st
	j.summary = WireJobSummary{JobID: e.ID, State: st.State, UnitsDone: st.UnitsDone, UnitsTotal: st.UnitsTotal}
}

// unitsFromWireSpec recomputes an interrupted sweep's admitted unit
// count from its journaled wire spec (the result that would have
// carried it never existed).
func unitsFromWireSpec(spec json.RawMessage) int {
	var wr WireSweepRequest
	if json.Unmarshal(spec, &wr) != nil {
		return 0
	}
	nb := len(wr.Benchmarks)
	if nb == 0 {
		nb = len(workloads.Fig8Configs())
	}
	ns := len(wr.Schedulers)
	if ns == 0 {
		ns = len(SchedulerNames)
	}
	rep := wr.Repeats
	if rep == 0 {
		rep = 1
	}
	return nb * ns * rep
}
