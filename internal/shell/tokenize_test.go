package shell

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go under -race, where allocation counts
// include the detector's own and mean nothing.
var raceEnabled bool

// refTokenize is the byte-at-a-time tokenizer that tokenize replaced: every
// word is built in a strings.Builder. It is the reference the fuzz test holds
// the substring tokenizer to.
func refTokenize(text string) ([]string, error) {
	var words []string
	var cur strings.Builder
	inWord := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch c {
		case ' ', '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case '\'', '"':
			quote := c
			inWord = true
			i++
			for ; i < len(text) && text[i] != quote; i++ {
				cur.WriteByte(text[i])
			}
			if i >= len(text) {
				return nil, fmt.Errorf("unterminated quote")
			}
		default:
			inWord = true
			cur.WriteByte(c)
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words, nil
}

// refSplitChain is the byte-at-a-time chain splitter that splitChain
// replaced.
func refSplitChain(line string) (segs []string, ops []string, err error) {
	var cur strings.Builder
	inQuote := byte(0)
	for i := 0; i < len(line); i++ {
		c := line[i]
		if inQuote != 0 {
			if c == inQuote {
				inQuote = 0
			}
			cur.WriteByte(c)
			continue
		}
		switch c {
		case '\'', '"':
			inQuote = c
			cur.WriteByte(c)
		case '&', '|':
			if i+1 < len(line) && line[i+1] == c {
				segs = append(segs, cur.String())
				cur.Reset()
				if c == '&' {
					ops = append(ops, "&&")
				} else {
					ops = append(ops, "||")
				}
				i++
			} else {
				return nil, nil, fmt.Errorf("unsupported operator %q", string(c))
			}
		case ';':
			segs = append(segs, cur.String())
			cur.Reset()
			ops = append(ops, ";")
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote != 0 {
		return nil, nil, fmt.Errorf("unterminated quote")
	}
	segs = append(segs, cur.String())
	return segs, ops, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzTokenizeMatchesReference: the substring tokenizer and chain splitter
// return what the byte-at-a-time ones did, errors included, on any line.
func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"",
		"   \t ",
		"echo hello world",
		"cat input.dat > out.dat",
		`echo "hello world" 'single quoted'`,
		`echo pre"fix"post 'a'"b"c ""`,
		`echo '' "" x''y`,
		`echo "a && b" 'c || d' "e ; f"`,
		`test -f a.dat && echo yes || echo no; echo done`,
		`echo "unterminated`,
		`echo 'also unterminated && x`,
		`echo a & b`,
		`echo a | b`,
		"a;;b&&||c",
		"x\t\"tab\tinside\"\ty",
		`echo "it's" 'say "hi"'`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, err := tokenize(line)
		want, wantErr := refTokenize(line)
		if errText(err) != errText(wantErr) || !slices.Equal(got, want) {
			t.Errorf("tokenize(%q) = %q, %v; the reference says %q, %v", line, got, err, want, wantErr)
		}
		segs, ops, err := splitChain(line)
		wantSegs, wantOps, wantErr := refSplitChain(line)
		if errText(err) != errText(wantErr) || !slices.Equal(segs, wantSegs) || !slices.Equal(ops, wantOps) {
			t.Errorf("splitChain(%q) = %q %q, %v; the reference says %q %q, %v", line, segs, ops, err, wantSegs, wantOps, wantErr)
		}
	})
}

// TestTokenizeAllocationBudget: a command's words are substrings of its
// line, so tokenizing it allocates only the word list; a word that quotes
// splice into is built, one allocation more.
func TestTokenizeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, tc := range []struct {
		line  string
		words int
		want  float64
	}{
		{`cat "input file.dat" > out.dat`, 4, 1},
		{`echo pre"fix" done`, 3, 2},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if words, err := tokenize(tc.line); err != nil || len(words) != tc.words {
				t.Fatalf("tokenize(%q) = %q, %v", tc.line, words, err)
			}
		}); n != tc.want {
			t.Errorf("tokenize(%q) allocates %.0f times per call, want %.0f", tc.line, n, tc.want)
		}
	}
}
