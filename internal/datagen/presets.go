package datagen

// The presets below are scaled-down analogues of the paper's three
// datasets (Table II). Absolute sizes are reduced to keep the full
// experiment suite runnable on one machine, but the *relative* shapes are
// preserved:
//
//   - Delicious: the largest corpus by users, tags and assignments — the
//     one on which CubeSim's dense slice-distance pass blows its time
//     budget (Table V's ">100 hours" entry).
//   - Bibsonomy: few users, many resources (publication bookmarking).
//   - Last.fm: balanced users/resources, smallest tag vocabulary.
//
// Paper (cleaned)      |U|     |T|     |R|     |Y|
//   Delicious        28939    7342    4118  1357238
//   Bibsonomy          732    4702   35708   258347
//   Last.fm           3897    3326    2849   335782
//
// All presets share the noise profile of real folksonomies: ~1.5% system
// tags, ~2% gibberish singleton tags, ~3% mixed-case duplicates, and 5%
// random mis-assignments.

// DeliciousLike mirrors the Delicious crawl's shape at laptop scale.
func DeliciousLike() Params {
	return Params{
		Name: "delicious", Seed: 42,
		Categories: 8, ConceptsPerCategory: 6, WordsPerConcept: 10,
		Users: 600, Resources: 1000, Assignments: 26000,
		MaxConceptsPerUser: 2, MaxConceptsPerResource: 2,
		MinConceptsPerResource: 1, DualAspectRate: 0.85, CrossCategoryMix: 1, UserCategoryCoherence: 0.9,
		UserVocabFraction: 0.5, SynonymBurst: 0.5, ResourceCoverage: 0.4, PolysemyRate: 0.35,
		NoiseRate: 0.05, GibberishRate: 0.02, SystemRate: 0.015, CaseRate: 0.03,
		ZipfS: 0.9,
	}
}

// BibsonomyLike mirrors the Bibsonomy crawl: few users, many resources.
func BibsonomyLike() Params {
	return Params{
		Name: "bibsonomy", Seed: 43,
		Categories: 6, ConceptsPerCategory: 6, WordsPerConcept: 10,
		Users: 200, Resources: 1200, Assignments: 14000,
		MaxConceptsPerUser: 2, MaxConceptsPerResource: 2,
		MinConceptsPerResource: 1, DualAspectRate: 0.85, CrossCategoryMix: 1, UserCategoryCoherence: 0.9,
		UserVocabFraction: 0.5, SynonymBurst: 0.5, ResourceCoverage: 0.4, PolysemyRate: 0.35,
		NoiseRate: 0.05, GibberishRate: 0.02, SystemRate: 0.015, CaseRate: 0.03,
		ZipfS: 0.85,
	}
}

// LastFMLike mirrors the Last.fm crawl: balanced dimensions.
func LastFMLike() Params {
	return Params{
		Name: "lastfm", Seed: 44,
		Categories: 6, ConceptsPerCategory: 6, WordsPerConcept: 10,
		Users: 400, Resources: 700, Assignments: 17000,
		MaxConceptsPerUser: 2, MaxConceptsPerResource: 2,
		MinConceptsPerResource: 1, DualAspectRate: 0.85, CrossCategoryMix: 1, UserCategoryCoherence: 0.9,
		UserVocabFraction: 0.5, SynonymBurst: 0.5, ResourceCoverage: 0.4, PolysemyRate: 0.35,
		NoiseRate: 0.05, GibberishRate: 0.02, SystemRate: 0.015, CaseRate: 0.03,
		ZipfS: 0.9,
	}
}

// Tiny is a fast corpus for tests and the quickstart example.
func Tiny() Params {
	return Params{
		Name: "tiny", Seed: 7,
		Categories: 4, ConceptsPerCategory: 3, WordsPerConcept: 4,
		Users: 80, Resources: 60, Assignments: 4000,
		MaxConceptsPerUser: 2, MaxConceptsPerResource: 2,
		MinConceptsPerResource: 1, DualAspectRate: 0.85, CrossCategoryMix: 1, UserCategoryCoherence: 0.9,
		UserVocabFraction: 0.5, SynonymBurst: 0.5, ResourceCoverage: 0.4, PolysemyRate: 0.2,
		NoiseRate: 0.05, GibberishRate: 0.02, SystemRate: 0.015, CaseRate: 0.03,
		ZipfS: 0.8,
	}
}

// Tags10K targets a cleaned vocabulary of ~10⁴ tags. Unlike the paper
// analogues above, the point is sheer vocabulary width: assignments are
// scaled just enough (≈15 per word) that the long tail survives
// min-support cleaning, and the Zipf exponent is kept low so popularity
// stays near-uniform across the vocabulary instead of starving it.
func Tags10K() Params {
	return Params{
		Name: "tags10k", Seed: 45,
		Categories: 10, ConceptsPerCategory: 25, WordsPerConcept: 44,
		Users: 3000, Resources: 4000, Assignments: 160000,
		MaxConceptsPerUser: 2, MaxConceptsPerResource: 2,
		MinConceptsPerResource: 1, DualAspectRate: 0.85, CrossCategoryMix: 1, UserCategoryCoherence: 0.9,
		UserVocabFraction: 0.5, SynonymBurst: 0.5, ResourceCoverage: 0.4, PolysemyRate: 0.35,
		NoiseRate: 0.05, GibberishRate: 0.02, SystemRate: 0.015, CaseRate: 0.03,
		ZipfS: 0.2,
	}
}

// NumConcepts returns the number of latent concepts a preset generates.
func (p Params) NumConcepts() int { return p.Categories * p.ConceptsPerCategory }

// Presets returns the three paper-analogue corpora in the order the paper
// reports them.
func Presets() []Params {
	return []Params{DeliciousLike(), BibsonomyLike(), LastFMLike()}
}
