"""Topic taxonomy completion over tokenized corpora."""
