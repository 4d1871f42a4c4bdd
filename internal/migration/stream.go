package migration

import "fmt"

// The stop-and-copy control frame. The data plane — the final dirty
// pages themselves — travels as raw 4 KiB pages counted arithmetically;
// the frame is the metadata that precedes them on the wire: which VM,
// how many pages to expect, and the serialized (UISR or native)
// platform state. Its size follows the actual UISR encoding rather than
// an estimate of "a few KB". The receiver restores from the state in
// memory, so the frame is sized, never built.
//
// Layout (little-endian):
//
//	u32  magic "HTPS"
//	u16  version (currently 1)
//	u16  reserved (must be zero)
//	u16  VM name length, then the name bytes
//	u32  page count of the data plane that follows
//	u32  state blob length, then the blob bytes
const streamFrameHeader = 4 + 2 + 2 + 2 + 4 + 4

// maxStreamName bounds the VM-name field; maxStreamState bounds the
// platform-state blob (far above any real UISR encoding).
const (
	maxStreamName  = 1 << 10
	maxStreamState = 64 << 20
)

// streamFrameSize returns the wire size of the control frame carrying
// the VM named vmName and its serialized state, or the error of a field
// too large for the frame.
func streamFrameSize(vmName string, state []byte) (int, error) {
	if len(vmName) > maxStreamName {
		return 0, fmt.Errorf("migration: stream frame: VM name %d bytes exceeds %d", len(vmName), maxStreamName)
	}
	if len(state) > maxStreamState {
		return 0, fmt.Errorf("migration: stream frame: state blob %d bytes exceeds %d", len(state), maxStreamState)
	}
	return streamFrameHeader + len(vmName) + len(state), nil
}
