package lib

import "testing"

func TestOnlyTestsCall(t *testing.T) {
	OnlyTestsCall(1)
}
