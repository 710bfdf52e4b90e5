package graph

// ShortRow is shortRow, for the external tests.
const ShortRow = shortRow

// RowIndexed reports whether g's sparse store has allocated its row index.
func RowIndexed(g *Undirected) bool { return g.rows.(*sparseRows).rows != nil }

// Pages returns how many pages g's list pool holds.
func Pages(g *Undirected) int { return len(g.adj.pages) - 1 - len(g.adj.idle) }
