"""Unit tests for relational instances → TGDB instance graph (Figure 5)."""


class TestNodeCounts:
    def test_entity_nodes_match_rows(self, academic, academic_db):
        for table in ("Conferences", "Institutions", "Authors", "Papers"):
            assert len(academic.graph.nodes_of_type(table)) == len(
                academic_db.table(table)
            )

    def test_multivalued_nodes_are_distinct_values(self, academic, academic_db):
        keywords = academic.graph.nodes_of_type("Paper_Keywords: keyword")
        distinct = academic_db.table("Paper_Keywords").distinct_values("keyword")
        assert len(keywords) == len(distinct)

    def test_categorical_nodes_are_distinct_values(self, academic, academic_db):
        years = academic.graph.nodes_of_type("Papers: year")
        distinct = academic_db.table("Papers").distinct_values("year")
        assert len(years) == len(distinct)


class TestEdgeCounts:
    def test_fk_edges_match_non_null_fks(self, academic, academic_db):
        non_null = sum(
            1
            for value in academic_db.table("Authors").column_values(
                "institution_id"
            )
            if value is not None
        )
        total = sum(
            academic.graph.degree(node.node_id, "Authors->Institutions")
            for node in academic.graph.nodes_of_type("Authors")
        )
        assert total == non_null

    def test_mn_edges_match_junction_rows(self, academic, academic_db):
        total = sum(
            academic.graph.degree(node.node_id, "Papers->Authors")
            for node in academic.graph.nodes_of_type("Papers")
        )
        assert total == len(academic_db.table("Paper_Authors"))

    def test_mv_edges_match_attr_rows(self, academic, academic_db):
        total = sum(
            academic.graph.degree(node.node_id, "Papers->Paper_Keywords")
            for node in academic.graph.nodes_of_type("Papers")
        )
        assert total == len(academic_db.table("Paper_Keywords"))

    def test_categorical_edges_match_non_null_values(self, academic, academic_db):
        non_null = sum(
            1
            for value in academic_db.table("Papers").column_values("year")
            if value is not None
        )
        total = sum(
            academic.graph.degree(node.node_id, "Papers->Papers: year")
            for node in academic.graph.nodes_of_type("Papers")
        )
        assert total == non_null


class TestSemantics:
    def test_neighbor_lookup_matches_relational_join(self, academic,
                                                     academic_sql):
        # Authors of the anchor paper, via graph adjacency vs via SQL.
        paper = academic.graph.find_by_label(
            "Papers", "Making database systems usable"
        )
        graph_names = {
            node.attributes["name"]
            for node in academic.graph.neighbors(paper.node_id, "Papers->Authors")
        }
        result = academic_sql.execute(
            "SELECT a.name FROM Authors a, Paper_Authors pa "
            "WHERE pa.author_id = a.id AND pa.paper_id = "
            f"{paper.attributes['id']}",
        )
        sql_names = {row[0] for row in result.rows}
        assert graph_names == sql_names

    def test_reverse_adjacency(self, academic):
        author = academic.graph.find_by_label("Authors", "H. V. Jagadish")
        papers = academic.graph.neighbors(author.node_id, "Authors->Papers")
        assert any(
            p.attributes["title"] == "Making database systems usable"
            for p in papers
        )

    def test_mn_edge_attributes_preserved(self, academic):
        paper = academic.graph.find_by_label(
            "Papers", "Making database systems usable"
        )
        edges = [
            edge for edge in academic.graph.edges()
            if edge.type_name == "Papers->Authors"
            and edge.source_id == paper.node_id
        ]
        positions = sorted(dict(e.attributes)["author_position"] for e in edges)
        assert positions == list(range(1, len(edges) + 1))

    def test_source_keys_are_relational_keys(self, academic):
        paper = academic.graph.find_by_label(
            "Papers", "Making database systems usable"
        )
        assert paper.source_key == paper.attributes["id"]

    def test_categorical_source_key_is_value(self, academic):
        node = academic.graph.node_by_source_key("Papers: year", 2007)
        assert node.attributes == {"year": 2007}

    def test_movies_translation_works(self, movies, movies_db):
        assert len(movies.graph.nodes_of_type("Movies")) == len(
            movies_db.table("Movies")
        )
        movie = movies.graph.nodes_of_type("Movies")[0]
        cast = movies.graph.neighbors(movie.node_id, "Movies->People")
        assert cast  # every movie has at least two cast members
