"""Unit tests for the synthetic academic corpus generator."""

from repro.datasets.academic import (
    ANCHOR_AUTHORS,
    AcademicConfig,
    academic_schema,
    generate_academic,
    paper_scale_config,
)


class TestSchema:
    def test_seven_relations(self):
        assert len(academic_schema()) == 7

    def test_seven_foreign_keys(self):
        total = sum(len(schema.foreign_keys) for schema in academic_schema())
        assert total == 7

    def test_paper_scale_config(self):
        assert paper_scale_config().papers == 38_000


class TestGeneration:
    def test_deterministic(self):
        db1, _ = generate_academic(AcademicConfig(papers=120, seed=3))
        db2, _ = generate_academic(AcademicConfig(papers=120, seed=3))
        assert db1.table("Papers").rows == db2.table("Papers").rows
        assert db1.table("Paper_Authors").rows == db2.table("Paper_Authors").rows

    def test_seed_changes_output(self):
        db1, _ = generate_academic(AcademicConfig(papers=120, seed=3))
        db2, _ = generate_academic(AcademicConfig(papers=120, seed=4))
        assert db1.table("Papers").rows != db2.table("Papers").rows

    def test_row_counts(self, academic_db):
        assert len(academic_db.table("Papers")) == 300
        assert len(academic_db.table("Conferences")) == 19
        assert len(academic_db.table("Authors")) >= 60

    def test_referential_integrity(self, academic_db):
        assert academic_db.validate_integrity() == []

    def test_titles_unique(self, academic_db):
        titles = academic_db.table("Papers").column_values("title")
        assert len(set(titles)) == len(titles)

    def test_years_in_range(self, academic_db):
        years = academic_db.table("Papers").column_values("year")
        assert all(2000 <= year <= 2015 for year in years)

    def test_citations_point_backwards(self, academic_db):
        """Papers cite earlier papers (ids are assigned in year order)."""
        for paper_id, ref_id in academic_db.table("Paper_References").rows:
            assert ref_id < paper_id

    def test_authorship_skewed(self, academic_db):
        """Preferential attachment yields a long-tailed distribution."""
        counts = {}
        for _, author_id, _ in academic_db.table("Paper_Authors").rows:
            counts[author_id] = counts.get(author_id, 0) + 1
        values = sorted(counts.values(), reverse=True)
        assert values[0] >= 4 * values[len(values) // 2]


class TestAnchors:
    def test_anchor_paper_exists(self, academic_sql):
        result = academic_sql.execute(
            "SELECT p.year FROM Papers p "
            "WHERE p.title = 'Making database systems usable'",
        )
        assert result.rows == [(2007,)]

    def test_anchor_paper_keywords(self, academic_sql):
        result = academic_sql.execute(
            "SELECT k.keyword FROM Papers p, Paper_Keywords k "
            "WHERE k.paper_id = p.id "
            "AND p.title = 'Making database systems usable'",
        )
        keywords = {row[0] for row in result.rows}
        assert "usability" in keywords and "user interfaces" in keywords

    def test_anchor_authors_exist(self, academic_db, academic):
        for name, _institution in ANCHOR_AUTHORS:
            assert academic.graph.find_by_label("Authors", name) is not None

    def test_korea_unique_maximum(self, academic_sql):
        result = academic_sql.execute(
            "SELECT i.name, COUNT(a.id) AS n FROM Institutions i, Authors a "
            "WHERE a.institution_id = i.id AND i.country = 'South Korea' "
            "GROUP BY i.id ORDER BY n DESC",
        )
        assert result.rows[0][0] == "KAIST"
        assert result.rows[0][1] > result.rows[1][1]  # strict maximum

    def test_germany_unique_maximum(self, academic_sql):
        result = academic_sql.execute(
            "SELECT i.name, COUNT(a.id) AS n FROM Institutions i, Authors a "
            "WHERE a.institution_id = i.id AND i.country = 'Germany' "
            "GROUP BY i.id ORDER BY n DESC",
        )
        assert result.rows[0][0] == "Technical University of Munich"
        assert result.rows[0][1] > result.rows[1][1]

    def test_madden_has_recent_papers(self, academic_sql):
        result = academic_sql.execute(
            "SELECT p.title FROM Papers p, Paper_Authors pa, Authors a "
            "WHERE pa.paper_id = p.id AND pa.author_id = a.id "
            "AND a.name = 'Samuel Madden' AND p.year >= 2013",
        )
        assert len(result.rows) >= 2
