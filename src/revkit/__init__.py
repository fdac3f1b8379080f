"""Revision analysis for versioned documents: sentence alignment,
document-level operation statistics, span-level edit extraction, and the
matching evaluation tools."""

__version__ = "0.1.0"
