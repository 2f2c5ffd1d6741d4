/**
 * @file
 * Versioned, checksummed binary archive for crash-consistent
 * snapshot/restore.
 *
 * Layout of a snapshot file:
 *
 *   offset  size  field
 *        0     8  magic "PPMSNAP\0"
 *        8     4  format version (little-endian u32)
 *       12     8  payload size in bytes (little-endian u64)
 *       20     8  FNV-1a 64 checksum of the payload
 *       28     N  payload
 *
 * The payload is a flat, field-by-field dump.  Its order is the
 * order of each stateful class's field list: one private
 * `template <class A, class Self> static void fields(A&, Self&)`,
 * defined and explicitly instantiated for Writer and Reader in the
 * class's *_io.cc.  save() and load() are one-line wrappers in the
 * header that walk it with a Writer or a Reader, so adding a field is
 * one line in the list.  The few steps that differ between the two
 * directions sit in `if constexpr (A::loading)` blocks next to the
 * list, each with the reason it cannot be symmetric.
 *
 * Encoding, chosen by the field's C++ type (Writer/Reader::operator()):
 *   double                    8 raw bytes (bit-exact round trip --
 *                             the whole point: a restored run must
 *                             replay the exact floating-point
 *                             trajectory of the uninterrupted one);
 *   enum                      i32;
 *   bool, char, int, long,    little-endian at the type's width
 *   std::size_t, ...          (1, 4 or 8 bytes);
 *   std::string               u64 length, then the bytes;
 *   std::vector<T>            u64 length, then each element;
 *   std::unique_ptr<T>        the pointee (which must exist);
 *   a stateful class          its save()/load();
 *   any other struct          its static fields() list.
 * A string or vector length is checked against the bytes left in the
 * payload before anything is allocated for it.
 *
 * Failure taxonomy (ppm_run maps each to a one-line diagnostic and
 * exit code 2).  open() reports the file-level failures as a
 * LoadStatus:
 *   kTruncated    file shorter than the header, or shorter/longer
 *                 than the payload size the header promises;
 *   kBadMagic     not a snapshot file at all;
 *   kBadVersion   a snapshot from an incompatible format version;
 *   kBadChecksum  right shape, corrupted payload bits.
 * A payload that passes open() can still fail while loading: a field
 * runs past the payload end ("payload underrun"), or a size or mode
 * the restoring process rebuilt from its own flags differs from the
 * archived one ("snapshot mismatch: ...").  Those throw LoadError.
 */

#ifndef PPM_SNAPSHOT_ARCHIVE_HH
#define PPM_SNAPSHOT_ARCHIVE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace ppm::snap {

/** Current snapshot format version. */
inline constexpr std::uint32_t kFormatVersion = 1;

/** Outcome of opening a snapshot payload. */
enum class LoadStatus {
    kOk,
    kTruncated,
    kBadMagic,
    kBadVersion,
    kBadChecksum,
};

/** One-word name of a LoadStatus ("ok", "truncated", ...). */
const char* load_status_name(LoadStatus s);

/**
 * A payload that does not fit the state it is loaded into: a field
 * runs past the end of the payload, or an archived size or mode
 * differs from the one the restoring process rebuilt.  Every check
 * the Reader and the field lists make throws this, with the check's
 * message as what().  The object being loaded is left half-loaded
 * and must be discarded.
 */
class LoadError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail {

template <class T>
inline constexpr bool is_vector = false;
template <class T, class Alloc>
inline constexpr bool is_vector<std::vector<T, Alloc>> = true;

template <class T>
inline constexpr bool is_unique_ptr = false;
template <class T, class Del>
inline constexpr bool is_unique_ptr<std::unique_ptr<T, Del>> = true;

/** Fewest payload bytes one encoded T can occupy (a struct: one). */
template <class T>
constexpr std::size_t
min_encoded_size()
{
    if constexpr (std::is_enum_v<T>)
        return 4;
    else if constexpr (std::is_arithmetic_v<T>)
        return sizeof(T);
    else if constexpr (std::is_same_v<T, std::string> || is_vector<T>)
        return 8;
    else
        return 1;
}

} // namespace detail

/** Serializer: appends fields to an in-memory payload buffer. */
class Writer
{
  public:
    /** Field lists branch on this for their load-only steps. */
    static constexpr bool loading = false;

    /** Append each value in order, encoded by its type. */
    template <class... T>
    void operator()(const T&... v)
    {
        (put(v), ...);
    }

    /**
     * Append a container whose length the loading process already
     * has (the restore protocol rebuilt it): the length, then each
     * element.  Reader::same_size() throws `what` on a mismatch.
     */
    template <class C>
    void same_size(const C& c, const char* /* what */)
    {
        u64(c.size());
        for (const auto& x : c)
            put(x);
    }

    /** Reader::check() fails a load; saving has nothing to check. */
    void check(bool /* ok */, const char* /* what */) {}

    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);

    /** Raw 8-byte bit pattern: -0.0, NaN payloads round-trip. */
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void str(const std::string& s);

    /** Size written so far (payload bytes). */
    std::size_t size() const { return buf_.size(); }

    /** The payload accumulated so far. */
    const std::string& payload() const { return buf_; }

    /** Header + payload, ready to hit disk. */
    std::string finalize() const;

  private:
    template <class T>
    void put(const T& v);

    std::string buf_;
};

/** Deserializer over a validated payload. */
class Reader
{
  public:
    /** Field lists branch on this for their load-only steps. */
    static constexpr bool loading = true;

    /**
     * Validate `file_bytes` (header + payload).  On kOk the reader is
     * positioned at the start of the payload; any other status leaves
     * it unusable.
     */
    LoadStatus open(const std::string& file_bytes);

    /** Read each value in order, decoded by its type. */
    template <class... T>
    void operator()(T&... v)
    {
        (get(v), ...);
    }

    /**
     * Read a container written by Writer::same_size() into `c` as it
     * stands: throw LoadError(`what`) unless the archived length
     * equals c.size(), then overwrite each element in place.
     */
    template <class C>
    void same_size(C& c, const char* what)
    {
        expect_size(c.size(), what);
        for (auto& x : c)
            get(x);
    }

    /** Throw LoadError(`what`) unless `ok`: the loaded state does not
     *  fit the state this process rebuilt. */
    void check(bool ok, const char* what)
    {
        if (!ok)
            throw LoadError(what);
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string str();

    /** Bytes left unread (0 after a complete load). */
    std::size_t remaining() const { return data_.size() - pos_; }

  private:
    template <class T>
    void get(T& v);

    const char* take(std::size_t n);

    /** Read a u64 length of elements at least `min_bytes` each; throw
     *  unless that many could still fit in the payload. */
    std::size_t length(std::size_t min_bytes);

    /** Read a u64 length; throw `what` unless it equals `n`. */
    void expect_size(std::size_t n, const char* what);

    std::string data_;  ///< Payload copy (owned; the file buffer dies).
    std::size_t pos_ = 0;
};

template <class T>
void
Writer::put(const T& v)
{
    if constexpr (std::is_enum_v<T>) {
        u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(v)));
    } else if constexpr (std::is_floating_point_v<T>) {
        static_assert(std::is_same_v<T, double>, "only double is archived");
        f64(v);
    } else if constexpr (std::is_integral_v<T>) {
        static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
        if constexpr (sizeof(T) == 1)
            u8(static_cast<std::uint8_t>(v));
        else if constexpr (sizeof(T) == 4)
            u32(static_cast<std::uint32_t>(v));
        else
            u64(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
        str(v);
    } else if constexpr (detail::is_vector<T>) {
        u64(v.size());
        for (const auto& x : v)
            put(x);
    } else if constexpr (detail::is_unique_ptr<T>) {
        put(*v);
    } else if constexpr (requires { v.save(*this); }) {
        v.save(*this);
    } else {
        T::fields(*this, v);
    }
}

template <class T>
void
Reader::get(T& v)
{
    if constexpr (std::is_enum_v<T>) {
        v = static_cast<T>(static_cast<std::int32_t>(u32()));
    } else if constexpr (std::is_floating_point_v<T>) {
        static_assert(std::is_same_v<T, double>, "only double is archived");
        v = f64();
    } else if constexpr (std::is_same_v<T, bool>) {
        v = u8() != 0;
    } else if constexpr (std::is_integral_v<T>) {
        static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
        if constexpr (sizeof(T) == 1)
            v = static_cast<T>(u8());
        else if constexpr (sizeof(T) == 4)
            v = static_cast<T>(u32());
        else
            v = static_cast<T>(u64());
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = str();
    } else if constexpr (detail::is_vector<T>) {
        using E = typename T::value_type;
        v.resize(length(detail::min_encoded_size<E>()));
        if constexpr (std::is_same_v<E, bool>) {
            for (std::size_t i = 0; i < v.size(); ++i)
                v[i] = u8() != 0;
        } else {
            for (E& x : v)
                get(x);
        }
    } else if constexpr (detail::is_unique_ptr<T>) {
        get(*v);
    } else if constexpr (requires { v.load(*this); }) {
        v.load(*this);
    } else {
        T::fields(*this, v);
    }
}

/** Write `w`'s finalized bytes to `path` atomically (tmp + rename).
 *  Returns false (and fills `*error`) on any I/O failure. */
bool write_file(const std::string& path, const Writer& w,
                std::string* error);

/** Read and validate `path`; on kOk `*r` is ready to load from. */
LoadStatus read_file(const std::string& path, Reader* r);

} // namespace ppm::snap

#endif // PPM_SNAPSHOT_ARCHIVE_HH
