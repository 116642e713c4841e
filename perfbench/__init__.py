"""End-to-end benchmark of the retrieval system: see NOTES.md and run.py."""
