package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// systemTableSchemas renders every registered system table as
// "name\n  column type\n..." in VirtualNames order.
func systemTableSchemas(db *Database) string {
	var b strings.Builder
	for _, name := range db.Catalog().VirtualNames() {
		fmt.Fprintf(&b, "%s\n", name)
		for _, c := range db.Catalog().Virtual(name).Table.Schema.Cols {
			fmt.Fprintf(&b, "  %s %s nullable=%v\n", c.Name, c.Typ, c.Nullable)
		}
	}
	return b.String()
}

// TestSystemTableSchemaGolden pins the name, column names, types and column
// order of every system table: the golden was recorded from the hand-written
// registrations, so the struct-tag declarations must reproduce it exactly. A
// deliberate schema change edits the golden by hand (the failure prints the
// new text) together with docs/SQL.md.
func TestSystemTableSchemaGolden(t *testing.T) {
	db := openTestDB(t, 1, 0)
	got := systemTableSchemas(db)
	const path = "testdata/system_tables.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("system table schemas drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestSystemTablesDocumented is `make docs-check` for the system tables:
// every registered table has a "### <name>" section in docs/SQL.md whose
// markdown table lists exactly the table's columns — name and type, in
// order. The registrations are the source of truth; this keeps the reference
// from drifting.
func TestSystemTablesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SQL.md")
	if err != nil {
		t.Fatal(err)
	}
	docType := map[string]string{"VARCHAR": "varchar", "INTEGER": "int", "FLOAT": "float", "BOOLEAN": "bool", "TIMESTAMP": "timestamp"}
	db := openTestDB(t, 1, 0)
	for _, name := range db.Catalog().VirtualNames() {
		_, section, found := strings.Cut(string(doc), "\n### "+name+"\n")
		if !found {
			t.Errorf("docs/SQL.md has no \"### %s\" section", name)
			continue
		}
		section, _, _ = strings.Cut(section, "\n##")
		var got []string
		for _, line := range strings.Split(section, "\n") {
			if cells := strings.Split(line, "|"); len(cells) >= 4 && strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
				got = append(got, strings.Trim(strings.TrimSpace(cells[1]), "`")+" "+strings.TrimSpace(cells[2]))
			}
		}
		var want []string
		for _, c := range db.Catalog().Virtual(name).Table.Schema.Cols {
			want = append(want, c.Name+" "+docType[c.Typ.String()])
		}
		if strings.Join(got, ", ") != strings.Join(want, ", ") {
			t.Errorf("docs/SQL.md section %s lists\n  %s\nbut the table is\n  %s", name, strings.Join(got, ", "), strings.Join(want, ", "))
		}
	}
}

type untaggedRow struct {
	ID    int64 `vt:"id"`
	Extra string
}

type unsupportedRow struct {
	ID   int64          `vt:"id"`
	Tags map[string]int `vt:"tags"`
}

type unitlessRow struct {
	Wall time.Duration `vt:"wall"`
}

type duplicateRow struct {
	ID    int64 `vt:"id"`
	Other int64 `vt:"id"`
}

type wellFormedRow struct {
	ID      int64         `vt:"id"`
	Name    fmt.Stringer  `vt:"-"`
	Wall    time.Duration `vt:"wall_ms,ms"`
	Tags    []string      `vt:"tags,csv"`
	private int
}

// TestRegisterTableRejectsBadRowTypes: a row struct that cannot be tabulated
// in full fails at registration with an error naming the struct and the
// field — never a table with a silently missing column.
func TestRegisterTableRejectsBadRowTypes(t *testing.T) {
	cat := openTestDB(t, 1, 0).Catalog()
	for _, tc := range []struct {
		err  error
		want []string
	}{
		{registerTable(cat, "v_test.untagged", func() ([]untaggedRow, error) { return nil, nil }), []string{"v_test.untagged", "untaggedRow.Extra", "no vt column tag"}},
		{registerTable(cat, "v_test.unsupported", func() ([]unsupportedRow, error) { return nil, nil }), []string{"unsupportedRow.Tags", "unsupported field type map[string]int"}},
		{registerTable(cat, "v_test.unitless", func() ([]unitlessRow, error) { return nil, nil }), []string{"unitlessRow.Wall", "unsupported field type time.Duration"}},
		{registerTable(cat, "v_test.duplicate", func() ([]duplicateRow, error) { return nil, nil }), []string{"duplicateRow.Other", `duplicate column "id"`}},
	} {
		if tc.err == nil {
			t.Errorf("registration expected to fail with %q succeeded", tc.want)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(tc.err.Error(), w) {
				t.Errorf("error %q does not mention %q", tc.err, w)
			}
		}
	}
	for _, name := range []string{"v_test.untagged", "v_test.unsupported", "v_test.unitless", "v_test.duplicate"} {
		if cat.Virtual(name) != nil {
			t.Errorf("%s was registered despite its error", name)
		}
	}

	rows := []wellFormedRow{{ID: 7, Wall: 1500 * time.Millisecond, Tags: []string{"a", "b"}, private: 1}}
	if err := registerTable(cat, "v_test.ok", func() ([]wellFormedRow, error) { return rows, nil }); err != nil {
		t.Fatal(err)
	}
	vt := cat.Virtual("v_test.ok")
	if got := strings.Join(vt.Table.Schema.Names(), ","); got != "id,wall_ms,tags" {
		t.Fatalf("columns = %s, want id,wall_ms,tags (vt:\"-\" and unexported fields left out)", got)
	}
	got, err := vt.Rows()
	if err != nil || len(got) != 1 || got[0][0].I != 7 || got[0][1].I != 1500 || got[0][2].S != "a,b" {
		t.Fatalf("rows = %v, %v; want [[7 1500 a,b]]", got, err)
	}
}
