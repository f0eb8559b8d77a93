package journal

import (
	"fmt"

	"unicore/internal/bin"
)

// formatTag leads every record payload. It names the layout below; a change
// to the fields of any kind takes a new tag, and a reader refuses a tag it
// was not built for instead of guessing.
const formatTag byte = 0x01

// walkEntry is the one description of a record payload, run by appendPayload
// as the encoder and by decodePayload as the decoder: format tag, kind, then
// the fields of the one payload struct that kind carries, in declaration
// order. Byte fields decode as views into the input.
func walkEntry(c *bin.Codec, e *Entry) error {
	tag := formatTag
	c.Byte(&tag)
	c.Byte((*byte)(&e.Kind))
	switch e.Kind {
	case KindFileWrite, KindFileRemove, KindMkdir, KindRename:
		if f := payload(c, &e.File); f != nil {
			c.Str(&f.Vsite)
			c.Str(&f.Path)
			c.Str(&f.To)
			c.View(&f.Data)
			return nil
		}
	case KindAdmit:
		if a := payload(c, &e.Admit); a != nil {
			c.Str(&a.Job)
			c.Str(&a.Owner)
			c.Str(&a.UID)
			c.Strs(&a.Groups)
			c.Str(&a.Project)
			c.Str(&a.Vsite)
			c.View(&a.AJO)
			c.Str(&a.ConsignID)
			c.Str(&a.ParentJob)
			c.Str(&a.ParentAction)
			c.Time(&a.Submitted)
			return nil
		}
	case KindActionStart, KindActionDone:
		if a := payload(c, &e.Action); a != nil {
			c.Str(&a.Job)
			c.Str(&a.Action)
			c.Int(&a.Status)
			c.Str(&a.Reason)
			c.Int(&a.ExitCode)
			c.View(&a.Stdout)
			c.View(&a.Stderr)
			for i := range bin.Slice(c, &a.Files) {
				f := &a.Files[i]
				c.Str(&f.Path)
				c.Varint(&f.Size)
				c.Uvarint(&f.CRC)
			}
			c.Time(&a.Started)
			c.Time(&a.Finished)
			c.View(&a.Tree)
			return nil
		}
	case KindInject:
		if in := payload(c, &e.Inject); in != nil {
			c.Str(&in.Job)
			c.Str(&in.After)
			c.Str(&in.Name)
			c.View(&in.Data)
			return nil
		}
	case KindRemote:
		if l := payload(c, &e.Remote); l != nil {
			c.Str(&l.Job)
			c.Str(&l.Action)
			c.Str(&l.Usite)
			c.Str(&l.RemoteJob)
			return nil
		}
	case KindControl:
		if ctl := payload(c, &e.Control); ctl != nil {
			c.Str(&ctl.Job)
			c.Str(&ctl.Op)
			return nil
		}
	case KindRootDone:
		if d := payload(c, &e.Root); d != nil {
			c.Str(&d.Job)
			c.Int(&d.Status)
			c.Time(&d.Finished)
			return nil
		}
	case KindSeq:
		c.Varint(&e.Seq)
		return nil
	case KindJobEvent:
		if ev := payload(c, &e.Event); ev != nil {
			c.Str(&ev.Owner)
			c.Str(&ev.Job)
			c.Uvarint(&ev.Seq)
			c.Uvarint(&ev.Global)
			c.Str(&ev.Origin)
			c.Str(&ev.Type)
			c.Str(&ev.Action)
			c.Int(&ev.Status)
			c.Str(&ev.Reason)
			c.Time(&ev.Time)
			c.Bool(&ev.Terminal)
			return nil
		}
	default:
		return fmt.Errorf("journal: entry of unknown %s", e.Kind)
	}
	return fmt.Errorf("journal: %s entry without its payload", e.Kind)
}

// payload returns the struct a kind's fields are walked in: a new one hung
// on the entry when decoding, the entry's own when encoding — nil if it has
// none, which walkEntry refuses.
func payload[T any](c *bin.Codec, p **T) *T {
	if c.Decoding() {
		*p = new(T)
	}
	return *p
}

// appendPayload encodes e behind b.
func appendPayload(b []byte, e Entry) ([]byte, error) {
	c := bin.Encoder(b)
	err := walkEntry(&c, &e)
	return c.Bytes(), err
}

// decodePayload is appendPayload's inverse. The entry's byte fields are
// views into p, which the caller must not reuse. Any fault — a foreign
// format tag, an unknown kind, a short or over-long field list — is
// ErrCorrupt: p passed its checksum, so it is what was written.
func decodePayload(p []byte) (Entry, error) {
	if len(p) < 2 {
		return Entry{}, fmt.Errorf("%w: %d-byte payload", ErrCorrupt, len(p))
	}
	if p[0] != formatTag {
		return Entry{}, fmt.Errorf("%w: record has format tag 0x%02x, this build reads journal format 0x%02x", ErrCorrupt, p[0], formatTag)
	}
	var e Entry
	c := bin.Decoder(p)
	if err := walkEntry(&c, &e); err != nil {
		return Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := c.Err(); err != nil {
		return Entry{}, fmt.Errorf("%w: %s record: %v", ErrCorrupt, e.Kind, err)
	}
	return e, nil
}

// weight is what a queued entry counts against the writer's bound: the
// blobs it pins, plus a flat allowance for the structs and short strings.
func (e *Entry) weight() int {
	const flat = 256
	switch {
	case e.File != nil:
		return flat + len(e.File.Data)
	case e.Admit != nil:
		return flat + len(e.Admit.AJO)
	case e.Action != nil:
		return flat + len(e.Action.Stdout) + len(e.Action.Stderr) + len(e.Action.Tree)
	case e.Inject != nil:
		return flat + len(e.Inject.Data)
	}
	return flat
}
