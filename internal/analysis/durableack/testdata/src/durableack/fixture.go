// Package fixture exercises the durableack analyzer: acks returned after a
// journal mutation must be preceded by a sync. The bad cases model exactly
// the regression the analyzer exists to catch — deleting the SyncJournal
// call before a consign or staging ack.
package fixture

import (
	"errors"

	"unicore/internal/core"
	"unicore/internal/journal"
	"unicore/internal/protocol"
	"unicore/internal/staging"
)

// Srv models an NJS-like service owning a journal store and a spool.
type Srv struct {
	store *journal.Store
	spool *staging.Spool
}

// SyncJournal models the njs group-commit sync.
func (s *Srv) SyncJournal() error { return s.store.Sync() }

// stageAck models the staging ack barrier.
func (s *Srv) stageAck() error { return s.store.Sync() }

func (s *Srv) admit() (core.JobID, error) { return "j1", nil }

// BadConsign is Consign with the SyncJournal deleted: the ack races the
// fsync.
func (s *Srv) BadConsign(e journal.Entry) (core.JobID, error) {
	id, err := s.admit()
	if err != nil {
		return "", err
	}
	s.store.Append(e)
	return id, nil // want "ack returned after unsynced journal mutation"
}

// GoodConsign syncs between the append and the ack.
func (s *Srv) GoodConsign(e journal.Entry) (core.JobID, error) {
	id, err := s.admit()
	if err != nil {
		return "", err
	}
	s.store.Append(e)
	if err := s.SyncJournal(); err != nil {
		return "", err
	}
	return id, nil
}

// BadStageCommit acks a spool commit without the stageAck barrier.
func (s *Srv) BadStageCommit(owner core.DN, handle string, crc uint64) (protocol.PutCommitReply, error) {
	info, err := s.spool.Commit(owner, handle, crc)
	if err != nil {
		return protocol.PutCommitReply{}, err
	}
	return protocol.PutCommitReply{Size: info.Size}, nil // want "unsynced journal mutation \"Commit\""
}

// GoodStageCommit runs the barrier before acknowledging; the early return on
// the error path is exempt because it is dominated by an err != nil guard.
func (s *Srv) GoodStageCommit(owner core.DN, handle string, crc uint64) (protocol.PutCommitReply, error) {
	info, err := s.spool.Commit(owner, handle, crc)
	if err != nil {
		return protocol.PutCommitReply{}, err
	}
	if err := s.stageAck(); err != nil {
		return protocol.PutCommitReply{}, err
	}
	return protocol.PutCommitReply{Size: info.Size, CRC: info.CRC, Chunks: info.Chunks}, nil
}

// SuppressedConsign documents a reviewed exception: the directive carries a
// mandatory reason and silences the finding on the next line.
func (s *Srv) SuppressedConsign(e journal.Entry) (core.JobID, error) {
	s.store.Append(e)
	//lint:allow durableack fixture: ack durability handled by the caller
	return "j2", nil
}

func (s *Srv) recordControl(id core.JobID) {}

func (s *Srv) emitEvent(id core.JobID) {}

// BadHold journals a transition through a record* helper and acks unsynced.
func (s *Srv) BadHold(id core.JobID) (core.JobID, error) {
	s.recordControl(id)
	return id, nil // want "unsynced journal mutation \"recordControl\""
}

// EventOnly raises an event, which journals nothing of its own (the event
// rides the record of its transition), so the ack needs no sync.
func (s *Srv) EventOnly(id core.JobID) (core.JobID, error) {
	s.emitEvent(id)
	return id, nil
}

// NotAnAck mutates the journal but returns no ack type, so it is out of
// scope regardless of sync placement.
func (s *Srv) NotAnAck(e journal.Entry) error {
	s.store.Append(e)
	return errors.New("no ack here")
}
