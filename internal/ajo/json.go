package ajo

import (
	"encoding/json"
	"fmt"
)

// The JSON form of an AJO is the one for people: what a CLI prints and a
// debugger reads. Each action is a self-describing envelope {kind, body}
// whose kind is the class name from Figure 3, applied recursively through
// ActionList. Nothing on the wire or in the journal carries it.

// envelope wraps one action with its concrete class name.
type envelope struct {
	Kind Kind            `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// newByKind allocates the concrete type for a kind.
func newByKind(k Kind) (Action, error) {
	switch k {
	case KindJob:
		return &AbstractJob{}, nil
	case KindExecute:
		return &ExecuteTask{}, nil
	case KindCompile:
		return &CompileTask{}, nil
	case KindLink:
		return &LinkTask{}, nil
	case KindUser:
		return &UserTask{}, nil
	case KindScript:
		return &ScriptTask{}, nil
	case KindImport:
		return &ImportTask{}, nil
	case KindExport:
		return &ExportTask{}, nil
	case KindTransfer:
		return &TransferTask{}, nil
	case KindControl:
		return &ControlService{}, nil
	case KindList:
		return &ListService{}, nil
	case KindQuery:
		return &QueryService{}, nil
	}
	return nil, fmt.Errorf("ajo: unknown action kind %q", k)
}

// MarshalJSON renders any action (including a whole recursive AbstractJob)
// as a self-describing JSON document.
func MarshalJSON(a Action) ([]byte, error) {
	if a == nil {
		return nil, fmt.Errorf("ajo: marshal nil action")
	}
	body, err := json.Marshal(a)
	if err != nil {
		return nil, fmt.Errorf("ajo: marshal %s: %w", a.Kind(), err)
	}
	return json.Marshal(envelope{Kind: a.Kind(), Body: body})
}

// UnmarshalJSON decodes MarshalJSON's document into the concrete action
// type.
func UnmarshalJSON(data []byte) (Action, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("ajo: decoding envelope: %w", err)
	}
	a, err := newByKind(env.Kind)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(env.Body, a); err != nil {
		return nil, fmt.Errorf("ajo: decoding %s body: %w", env.Kind, err)
	}
	return a, nil
}

// ActionList is []Action with polymorphic JSON encoding, used for the
// components of an AbstractJob.
type ActionList []Action

// MarshalJSON encodes each element as an envelope.
func (l ActionList) MarshalJSON() ([]byte, error) {
	raw := make([]json.RawMessage, len(l))
	for i, a := range l {
		enc, err := MarshalJSON(a)
		if err != nil {
			return nil, err
		}
		raw[i] = enc
	}
	return json.Marshal(raw)
}

// UnmarshalJSON decodes a list of envelopes.
func (l *ActionList) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("ajo: decoding action list: %w", err)
	}
	out := make(ActionList, len(raw))
	for i, r := range raw {
		a, err := UnmarshalJSON(r)
		if err != nil {
			return err
		}
		out[i] = a
	}
	*l = out
	return nil
}

// MarshalOutcomeJSON renders an outcome tree as indented JSON, for people (a
// CLI's -json output); MarshalOutcome is the form that travels.
func MarshalOutcomeJSON(o *Outcome) ([]byte, error) {
	return json.MarshalIndent(o, "", "  ")
}
