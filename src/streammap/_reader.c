/* The file formats in C: the METIS body reader of streammap.graph_stream,
 * which turns plain lines into CSR chunks, and the partition file writer of
 * streammap.cli.
 *
 * read_chunk parses body lines of a METIS adjacency file from a byte buffer
 * into the arrays of one CSR chunk. It accepts only a plain grammar: lines
 * of printable ASCII and tabs, tokens separated by spaces and tabs, neighbour
 * ids of decimal digits, and weights of decimal digits with an optional
 * fraction and exponent that are positive and finite. At the first line
 * outside that grammar, or one that breaks a rule of the format (a neighbour
 * out of range, a self loop or duplicate without sanitize, a missing weight,
 * a record beyond n), it stops and leaves the rest of the source to the
 * Python reader, which is the format's definition and words every error.
 *
 * Lines end at "\n", "\r\n" or a lone "\r", as in Python's universal
 * newlines. A weight token is a float token when it holds a '.' or an
 * exponent, as Python's int() rejects it and float() takes it; its value is
 * strtod's correctly rounded double, which equals Python's.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* state[], carried across calls by the caller */
enum {
    POS,         /* byte offset of the next line in buf */
    LINE,        /* physical lines consumed so far */
    NODE,        /* id of the next record */
    DEGREES,     /* adjacency entries kept so far */
    COUNT,       /* records in the current chunk */
    EDGES,       /* adjacency entries in the current chunk */
};

/* return codes of read_chunk */
enum { PAUSED = 0, HAND_OFF = 1, NO_ROOM = 2 };

static int is_digit(char c) { return c >= '0' && c <= '9'; }
static int is_sep(char c) { return c == ' ' || c == '\t'; }

/* Weight token [s, e): 0 when it is plain, positive and finite. */
static int weight_token(const char *s, const char *e, double *value, uint8_t *is_float)
{
    const char *p = s;
    int digits = 0, fraction = 0;
    while (p < e && is_digit(*p))
        p++, digits++;
    if (p < e && *p == '.') {
        fraction = 1;
        for (p++; p < e && is_digit(*p); p++)
            digits++;
    }
    if (!digits)
        return -1;
    if (p < e && (*p == 'e' || *p == 'E')) {
        fraction = 1;
        if (++p < e && (*p == '+' || *p == '-'))
            p++;
        if (p == e || !is_digit(*p))
            return -1;
        while (p < e && is_digit(*p))
            p++;
    }
    char text[64];
    if (p != e || e - s >= (int64_t)sizeof text)
        return -1;
    memcpy(text, s, (size_t)(e - s));
    text[e - s] = '\0';
    *value = strtod(text, NULL);
    *is_float = (uint8_t)fraction;
    return *value > 0.0 && isfinite(*value) ? 0 : -1;
}

/* Neighbour token [s, e): 0 when it is a decimal id in [1, n]. */
static int neighbour_token(const char *s, const char *e, int64_t n, int64_t *id)
{
    if (s == e || e - s > 18)
        return -1;
    int64_t v = 0;
    for (const char *p = s; p < e; p++) {
        if (!is_digit(*p))
            return -1;
        v = v * 10 + (*p - '0');
    }
    *id = v;
    return v >= 1 && v <= n ? 0 : -1;
}

static const char *token_end(const char *p, const char *e)
{
    while (p < e && !is_sep(*p))
        p++;
    return p;
}

static const char *skip_seps(const char *p, const char *e)
{
    while (p < e && is_sep(*p))
        p++;
    return p;
}

/* Parses the record of line [s, e) into slot state[COUNT] of the chunk.
 * seen[v] == node + 1 marks neighbour v as already listed by this record. */
static int parse_record(const char *s, const char *e, int64_t n, int node_weights,
                        int edge_weights, int sanitize, int64_t *seen, int64_t *state,
                        int64_t adj_cap, int64_t *indptr, int64_t *adj, double *adj_w,
                        double *node_w, uint8_t *node_float, uint8_t *edge_float)
{
    const int64_t node = state[NODE], i = state[COUNT], first = state[EDGES];
    int64_t k = first;
    const char *p = skip_seps(s, e);
    if (node_weights) {
        const char *q = token_end(p, e);
        if (p == e || weight_token(p, q, &node_w[i], &node_float[i]))
            return HAND_OFF;
        p = skip_seps(q, e);
    } else {
        node_w[i] = 1.0;
        node_float[i] = 0;
    }
    while (p < e) {
        const char *q = token_end(p, e);
        int64_t v;
        if (neighbour_token(p, q, n, &v))
            return HAND_OFF;
        const char *ws = q, *we = q;
        p = skip_seps(q, e);
        if (edge_weights) {
            if (p == e)
                return HAND_OFF;
            ws = p;
            we = token_end(p, e);
            p = skip_seps(we, e);
        }
        v -= 1;
        if (v == node || seen[v] == node + 1) {
            /* a dropped entry's weight is never read, as in the Python reader */
            if (!sanitize)
                return HAND_OFF;
            continue;
        }
        if (k == adj_cap) {
            for (int64_t x = first; x < k; x++)
                seen[adj[x]] = 0;
            return NO_ROOM;
        }
        seen[v] = node + 1;
        adj[k] = v;
        if (edge_weights) {
            if (weight_token(ws, we, &adj_w[k], &edge_float[k]))
                return HAND_OFF;
        } else {
            adj_w[k] = 1.0;
            edge_float[k] = 0;
        }
        k++;
    }
    indptr[i + 1] = k;
    state[DEGREES] += k - first;
    state[EDGES] = k;
    state[COUNT] += 1;
    state[NODE] += 1;
    return PAUSED;
}

/* Reads lines of buf[state[POS] .. len - 1] until the chunk holds max_count
 * records or the buffer has no whole line left; a line is whole when its end
 * is in the buffer or final says the source ends with the buffer. Returns
 * PAUSED then, HAND_OFF at a line the Python reader must take, and NO_ROOM
 * at a record whose entries do not fit in adj_cap; state[POS] is that line's
 * offset. Records are written from slot state[COUNT] on: a record's
 * neighbour ids (0-based) go to adj and their weights to adj_w, from
 * indptr[state[COUNT]] on; indptr[0] must hold the chunk's first offset. */
int read_chunk(const char *buf, int64_t len, int final, int64_t n, int node_weights,
               int edge_weights, int sanitize, int64_t *seen, int64_t *state,
               int64_t max_count, int64_t adj_cap, int64_t *indptr, int64_t *adj,
               double *adj_w, double *node_w, uint8_t *node_float, uint8_t *edge_float)
{
    while (state[COUNT] < max_count) {
        const int64_t pos = state[POS];
        int64_t end = pos, next;
        while (end < len && buf[end] != '\n' && buf[end] != '\r')
            end++;
        if (end == len) {
            if (!final || pos == len)
                return PAUSED;
            next = len;
        } else if (buf[end] == '\r') {
            if (end + 1 == len && !final)
                return PAUSED; /* a "\n" may follow in the next buffer */
            next = end + 1 < len && buf[end + 1] == '\n' ? end + 2 : end + 1;
        } else {
            next = end + 1;
        }
        for (int64_t x = pos; x < end; x++)
            if ((buf[x] < ' ' && buf[x] != '\t') || (unsigned char)buf[x] > '~')
                return HAND_OFF;
        if (end == pos || buf[pos] != '%') {
            if (state[NODE] >= n)
                return HAND_OFF;
            const int r = parse_record(buf + pos, buf + end, n, node_weights, edge_weights,
                                       sanitize, seen, state, adj_cap, indptr, adj, adj_w,
                                       node_w, node_float, edge_float);
            if (r != PAUSED)
                return r;
        }
        state[LINE] += 1;
        state[POS] = next;
    }
    return PAUSED;
}

/* Writes labels[0 .. n - 1], which must be positive, as the text of a
 * partition file: one decimal label per line, each ended by "\n". out must
 * hold 11 bytes per label, the most an int32 takes. Returns the bytes
 * written. */
int64_t format_labels(const int32_t *labels, int64_t n, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        char digits[10];
        int d = 0;
        for (uint32_t v = (uint32_t)labels[i]; d == 0 || v > 0; v /= 10)
            digits[d++] = (char)('0' + v % 10);
        while (d > 0)
            *p++ = digits[--d];
        *p++ = '\n';
    }
    return p - out;
}
