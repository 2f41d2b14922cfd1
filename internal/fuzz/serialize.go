package fuzz

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"sonar/internal/isa"
)

// Marshal renders a testcase as an annotated assembly listing: template
// metadata in header comments, then each region under a section marker.
// The format round-trips through Unmarshal, so interesting seeds can be
// exported from a campaign, stored, edited, and replayed.
func (tc *Testcase) Marshal() string {
	return string(tc.appendMarshal(make([]byte, 0, tc.marshalSize())))
}

// marshalSize estimates the length of the Marshal form.
func (tc *Testcase) marshalSize() int {
	n := len(tc.HeadChain) + len(tc.Prologue) + len(tc.Epilogue) + len(tc.Attacker)
	return 160 + 4*len(tc.Patterns) + 24*n
}

// appendMarshal appends the Marshal form of tc to b.
func (tc *Testcase) appendMarshal(b []byte) []byte {
	b = append(b, "# sonar testcase\n# probe: "...)
	b = strconv.AppendUint(b, uint64(tc.Probe), 10)
	b = append(b, "\n# probe-offset: "...)
	b = strconv.AppendInt(b, tc.ProbeOffset, 10)
	b = append(b, "\n# probe-delay: "...)
	b = strconv.AppendInt(b, int64(tc.ProbeDelay), 10)
	b = append(b, "\n# probe-base: "...)
	b = strconv.AppendUint(b, uint64(tc.ProbeBase), 10)
	b = append(b, "\n# patterns: "...)
	for i, p := range tc.Patterns {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(p), 10)
	}
	b = append(b, '\n')
	b = appendSection(b, "chain", tc.HeadChain)
	b = appendSection(b, "prologue", tc.Prologue)
	b = appendSection(b, "epilogue", tc.Epilogue)
	return appendSection(b, "attacker", tc.Attacker)
}

// appendSection appends one Marshal section: its marker line, then one
// indented line per instruction.
func appendSection(b []byte, name string, code []isa.Instr) []byte {
	b = append(append(append(b, '.'), name...), '\n')
	for _, ins := range code {
		b = append(ins.AppendText(append(b, "  "...)), '\n')
	}
	return b
}

// sections are the Marshal section names, in Marshal order.
var sections = [...]string{"chain", "prologue", "epilogue", "attacker"}

// sectionIndex returns the index of a section name in sections, or -1.
func sectionIndex(name string) int {
	for k, s := range sections {
		if s == name {
			return k
		}
	}
	return -1
}

// section returns the instruction list of section sections[k].
func (tc *Testcase) section(k int) *[]isa.Instr {
	return [...]*[]isa.Instr{&tc.HeadChain, &tc.Prologue, &tc.Epilogue, &tc.Attacker}[k]
}

// Unmarshal parses the Marshal format back into a testcase. It walks the
// lines strings.Split(src, "\n") would return by cutting at each newline,
// twice: the first walk counts each section's instructions, so the
// sections are carved, each capped, from one array; a section without
// instructions stays nil.
func Unmarshal(src string) (*Testcase, error) {
	var sizes [len(sections)]int
	cur, total := -1, 0
	for rest, more := src, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		switch {
		case line == "" || line[0] == '#':
		case line[0] == '.':
			cur = sectionIndex(line[1:])
		case cur >= 0:
			sizes[cur]++
			total++
		}
	}
	tc := &Testcase{}
	if total > 0 {
		code := make([]isa.Instr, total)
		for k, n := range sizes {
			if n > 0 {
				*tc.section(k) = code[:0:n]
				code = code[n:]
			}
		}
	}
	cur = -1
	ln := 0
	for rest, more := src, true; more; {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		ln++
		line := strings.TrimSpace(raw)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#"):
			if err := tc.header(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln, err)
			}
		case strings.HasPrefix(line, "."):
			if cur = sectionIndex(line[1:]); cur < 0 {
				return nil, fmt.Errorf("line %d: unknown section %q", ln, line[1:])
			}
		default:
			ins, err := isa.Assemble(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", ln, err)
			}
			if cur < 0 {
				return nil, fmt.Errorf("line %d: instruction outside a section", ln)
			}
			sec := tc.section(cur)
			*sec = append(*sec, ins)
		}
	}
	return tc, nil
}

// header parses one "# key: value" metadata comment; unknown keys are
// ignored so the format can grow.
func (tc *Testcase) header(line string) error {
	body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	key, value, found := strings.Cut(body, ":")
	if !found {
		return nil // plain comment
	}
	key = strings.TrimSpace(key)
	value = strings.TrimSpace(value)
	atoi := func() (int, error) {
		v, err := strconv.Atoi(value)
		if err != nil {
			return 0, fmt.Errorf("bad %s value %q", key, value)
		}
		return v, nil
	}
	switch key {
	case "probe":
		v, err := atoi()
		if err != nil {
			return err
		}
		if v < 0 || v >= int(numPatterns) {
			return fmt.Errorf("probe pattern %d out of range", v)
		}
		tc.Probe = SecretPattern(v)
	case "probe-offset":
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("bad probe-offset %q", value)
		}
		tc.ProbeOffset = v
	case "probe-delay":
		v, err := atoi()
		if err != nil {
			return err
		}
		tc.ProbeDelay = v
	case "probe-base":
		v, err := atoi()
		if err != nil || v < 0 || v > 31 {
			return fmt.Errorf("bad probe-base %q", value)
		}
		tc.ProbeBase = uint8(v)
	case "patterns":
		tc.Patterns = nil
		n := 0
		for f, rest := nextField(value); f != ""; f, rest = nextField(rest) {
			n++
		}
		if n > 0 {
			tc.Patterns = make([]SecretPattern, 0, n)
		}
		for f, rest := nextField(value); f != ""; f, rest = nextField(rest) {
			v, err := strconv.Atoi(f)
			if err != nil || v < 0 || v >= int(numPatterns) {
				return fmt.Errorf("bad pattern %q", f)
			}
			tc.Patterns = append(tc.Patterns, SecretPattern(v))
		}
	}
	return nil
}

// nextField returns the first field of s, as strings.Fields splits it, and
// what follows the field; the field is "" when s has none.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if end := strings.IndexFunc(s, unicode.IsSpace); end >= 0 {
		return s[:end], s[end:]
	}
	return s, ""
}
